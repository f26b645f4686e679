package main

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

func bodiesOf(t *testing.T, in *traceInput, n int) []body {
	t.Helper()
	b, err := chunk(in.reads, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameBodies(t *testing.T) {
	gens := map[string]func(seed int64) (*traceInput, error){
		"aisle":   func(s int64) (*traceInput, error) { return aisleInput(s, 8) },
		"portals": func(s int64) (*traceInput, error) { return portalsInput(s, 4) },
		"belt":    func(s int64) (*traceInput, error) { return beltInput(s, 6, 10000) },
	}
	for name, gen := range gens {
		a, err := gen(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen(1)
		if err != nil {
			t.Fatal(err)
		}
		c, err := gen(2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.header, b.header) {
			t.Errorf("%s: headers differ for the same seed", name)
		}
		ba, bb, bc := bodiesOf(t, a, 128), bodiesOf(t, b, 128), bodiesOf(t, c, 128)
		if len(ba) != len(bb) {
			t.Fatalf("%s: %d vs %d bodies for the same seed", name, len(ba), len(bb))
		}
		for i := range ba {
			if !bytes.Equal(ba[i].data, bb[i].data) {
				t.Fatalf("%s: body %d differs for the same seed", name, i)
			}
		}
		if len(ba) == len(bc) && bytes.Equal(ba[0].data, bc[0].data) {
			t.Errorf("%s: seeds 1 and 2 gave the same first body", name)
		}
		if bytes.Contains(a.header, []byte("truth")) {
			t.Errorf("%s: session header carries ground truth: %s", name, a.header)
		}
	}
}

func TestTiledBelt(t *testing.T) {
	const tags, passes = 5, 4
	sc, err := scenario.ConveyorChurn(tags, 0.55, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	reads, truth, err := tileBelt(sc, pass, passes)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != passes*len(pass) {
		t.Fatalf("%d reads, want %d", len(reads), passes*len(pass))
	}
	for i := 1; i < len(reads); i++ {
		if reads[i].Time < reads[i-1].Time {
			t.Fatalf("time runs backwards at read %d: %v after %v", i, reads[i].Time, reads[i-1].Time)
		}
	}
	// Every pass holds its own tags: an EPC never appears in two passes.
	passOf := map[string]int{}
	per := len(pass)
	for i, r := range reads {
		k := i / per
		if p, ok := passOf[r.EPC.String()]; ok && p != k {
			t.Fatalf("EPC %v read in passes %d and %d", r.EPC, p, k)
		}
		passOf[r.EPC.String()] = k
	}
	if len(passOf) != tags*passes {
		t.Errorf("%d distinct EPCs, want %d", len(passOf), tags*passes)
	}
	// The truth is the concatenation of the passes' truths: pass 0 is the
	// untouched scene, and pass k is pass 0 renumbered.
	if len(truth) != tags*passes {
		t.Fatalf("truth has %d tags, want %d", len(truth), tags*passes)
	}
	if !slices.Equal(trace.EncodeEPCs(truth[:tags]), trace.EncodeEPCs(sc.TruthX)) {
		t.Errorf("first pass truth %v, want the scene's %v", truth[:tags], sc.TruthX)
	}
	for k := 0; k < passes; k++ {
		for _, e := range truth[k*tags : (k+1)*tags] {
			if passOf[e.String()] != k {
				t.Errorf("truth of pass %d lists %v, read in pass %d", k, e, passOf[e.String()])
			}
		}
	}
}
