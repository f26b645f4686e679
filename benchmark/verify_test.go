package main

import (
	"testing"

	"repro/internal/serve"
	"repro/internal/stpp"
)

// serveBelt streams a belt through an in-process stppd core under the
// belt workload's finalize policy and returns its final answer.
func serveBelt(t *testing.T, in *traceInput) *serve.OrderResponse {
	t.Helper()
	srv, err := serve.New(serve.Options{
		Config:         stppdConfig(),
		PublishEvery:   publishEvery,
		FinalizeAfter:  beltPolicy.After,
		FinalizeMargin: beltPolicy.Margin,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.CreateSession(in.hdr)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodiesOf(t, in, 128) {
		if err := sess.Enqueue(b.reads); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sess.Finish()
	if err != nil {
		t.Fatal(err)
	}
	resp := orderResponse(sess.ID, snap.Result, snap.Reads, snap.Final)
	if len(snap.Result.Emitted) == 0 {
		t.Fatal("the belt emitted no tags; the lifecycle never ran")
	}
	return &resp
}

// The verifier must replay under the daemon's finalize policy: with the
// lifecycle on, emitted tags leave the Y order, so a replay that drops
// the policy reports a false divergence on a correct daemon.
func TestVerifierHonoursFinalizePolicy(t *testing.T) {
	in, err := beltInput(1, 12, 20000)
	if err != nil {
		t.Fatal(err)
	}
	final := serveBelt(t, in)
	tau, err := newVerifier(beltPolicy, 128).check(final, in, len(in.reads))
	if err != nil {
		t.Fatalf("verifier with the daemon's policy: %v", err)
	}
	if tau < 0.9 {
		t.Errorf("order tau %v, want close to 1 on a clean belt", tau)
	}
	if _, err := newVerifier(stpp.FinalizePolicy{}, 128).check(final, in, len(in.reads)); err == nil {
		t.Error("a verifier without the finalize policy accepted the lifecycle daemon's answer; the check cannot tell the policies apart")
	}
}

func TestVerifierRejectsWrongAnswers(t *testing.T) {
	in, err := aisleInput(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier(stpp.FinalizePolicy{}, 128)
	want, err := v.reference(in, len(in.reads))
	if err != nil {
		t.Fatal(err)
	}
	good := serve.OrderResponse{Final: true, Reads: int64(len(in.reads)), XOrder: want.x, YOrder: want.y}
	if _, err := v.check(&good, in, len(in.reads)); err != nil {
		t.Fatalf("the reference's own answer failed: %v", err)
	}
	swapped := good
	swapped.XOrder = append([]string(nil), want.x...)
	swapped.XOrder[0], swapped.XOrder[1] = swapped.XOrder[1], swapped.XOrder[0]
	short := good
	short.Reads--
	notFinal := good
	notFinal.Final = false
	for name, bad := range map[string]serve.OrderResponse{"swapped": swapped, "short": short, "not final": notFinal} {
		if _, err := v.check(&bad, in, len(in.reads)); err == nil {
			t.Errorf("%s answer passed verification", name)
		}
	}
}

func TestKendallTau(t *testing.T) {
	truth := []string{"a", "b", "c", "d"}
	for _, tc := range []struct {
		order []string
		want  float64
	}{
		{[]string{"a", "b", "c", "d"}, 1},
		{[]string{"d", "c", "b", "a"}, -1},
		{[]string{"b", "a", "c", "d"}, 4.0 / 6},
		{[]string{"a", "x", "c"}, 1}, // tags missing from the truth are ignored
	} {
		if got := kendallTau(tc.order, truth); got != tc.want {
			t.Errorf("kendallTau(%v) = %v, want %v", tc.order, got, tc.want)
		}
	}
}
