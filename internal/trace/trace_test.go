package trace

import (
	"bytes"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/epcgen2"
	"repro/internal/reader"
)

func sampleTrace() *Trace {
	return &Trace{
		Header: Header{
			Scenario: "test",
			Seed:     42,
			TruthX:   EncodeEPCs([]epcgen2.EPC{epcgen2.NewEPC(1), epcgen2.NewEPC(2)}),
			PerpDist: 0.35,
			Speed:    0.1,
			Readers: []ReaderMeta{
				{ID: 0, XMin: 0, XMax: 1.2, PerpDist: 0.35, Speed: 0.1},
				{ID: 1, XMin: 0.9, XMax: 2.1, PerpDist: 0.35, Speed: 0.1, ClockOffset: 0.5},
			},
		},
		Reads: []reader.TagRead{
			{EPC: epcgen2.NewEPC(1), Time: 0.1, Phase: 1.25, RSSI: -55.5, Channel: 6},
			{EPC: epcgen2.NewEPC(2), Time: 0.2, Phase: 2.5, RSSI: -60, Channel: 6, Reader: 1},
			{EPC: epcgen2.NewEPC(1), Time: 0.3, Phase: 1.3, RSSI: -55, Channel: 6},
		},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	orig := sampleTrace()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Header contains slices, so compare fields piecewise.
	if back.Header.Scenario != "test" || back.Header.Seed != 42 {
		t.Errorf("header = %+v", back.Header)
	}
	if len(back.Reads) != len(orig.Reads) {
		t.Fatalf("reads = %d", len(back.Reads))
	}
	for i := range orig.Reads {
		if back.Reads[i] != orig.Reads[i] {
			t.Errorf("read %d: %+v != %+v", i, back.Reads[i], orig.Reads[i])
		}
	}
	truth, err := back.TruthXEPCs()
	if err != nil {
		t.Fatal(err)
	}
	if len(truth) != 2 || truth[0] != epcgen2.NewEPC(1) {
		t.Errorf("truth = %v", truth)
	}
	if len(back.Header.Readers) != 2 || back.Header.Readers[1] != orig.Header.Readers[1] {
		t.Errorf("readers = %+v", back.Header.Readers)
	}
}

func TestJSONLIsLineOriented(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 reads
		t.Fatalf("lines = %d", len(lines))
	}
	// The EPC travels as hex, not a byte array.
	if !strings.Contains(lines[1], `"epc":"3064`) {
		t.Errorf("read line = %s", lines[1])
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	withBlanks := strings.Replace(buf.String(), "\n", "\n\n", 1)
	back, err := ReadJSONL(strings.NewReader(withBlanks))
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Reads) != 3 {
		t.Errorf("reads = %d", len(back.Reads))
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("{}\ngarbage\n")); err == nil {
		t.Error("garbage read line accepted")
	}
	if _, err := ReadJSONL(strings.NewReader("{}\n{\"epc\":\"zz\"}\n")); err == nil {
		t.Error("bad EPC accepted")
	}
}

func TestTruthDecodeErrors(t *testing.T) {
	tr := &Trace{Header: Header{TruthX: []string{"zz"}}}
	if _, err := tr.TruthXEPCs(); err == nil {
		t.Error("bad truth accepted")
	}
	tr2 := &Trace{Header: Header{TruthY: []string{"zz"}}}
	if _, err := tr2.TruthYEPCs(); err == nil {
		t.Error("bad truth accepted")
	}
	empty := &Trace{}
	if x, err := empty.TruthXEPCs(); err != nil || len(x) != 0 {
		t.Error("empty truth should decode to empty")
	}
}

// TestMarshalReadsMatchesGoldenTrace: MarshalReads re-emits a committed
// golden trace's read lines byte for byte — the request bodies loadgen and
// the benchmark send are the lines tracegen archives. A non-finite float
// is refused with the read's index.
func TestMarshalReadsMatchesGoldenTrace(t *testing.T) {
	data, err := os.ReadFile("../deploy/testdata/golden/aisle.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ReadJSONL(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarshalReads(tr.Reads)
	if err != nil {
		t.Fatal(err)
	}
	if want := data[bytes.IndexByte(data, '\n')+1:]; !bytes.Equal(got, want) {
		t.Fatalf("MarshalReads differs from the golden trace's %d read lines", len(tr.Reads))
	}

	bad := slices.Clone(tr.Reads[:3])
	bad[2].Phase = math.Inf(-1)
	if _, err := MarshalReads(bad); err == nil || !strings.Contains(err.Error(), "read 2") {
		t.Fatalf("MarshalReads of a read with an infinite phase: err %v, want one naming read 2", err)
	}
}
