package experiment

import (
	"fmt"
	"sort"

	"repro/internal/epcgen2"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stpp"
)

// Runner carries the execution budget of an experiment.
type Runner struct {
	// Seed is the base seed; repetition r uses Seed + r.
	Seed int64
	// Reps is the number of repetitions for statistical experiments. The
	// paper typically uses 100; smaller values trade fidelity for speed.
	Reps int
	// Quick further trims workload sizes (for tests and smoke runs).
	Quick bool
	// Group runs the repetitions on its scheduler; nil means the default
	// scheduler. Repetitions run concurrently but every rep keeps its
	// serial seed (Seed + rep·prime) and results are folded in rep order,
	// so tables are bit-identical to a serial run — which a group on a
	// stopped scheduler gives, since its caller then runs every rep.
	Group *sched.Group
}

// QuickRunner is for smoke tests.
func QuickRunner() Runner { return Runner{Seed: 1, Reps: 3, Quick: true} }

// reps returns the effective repetition count.
func (r Runner) reps() int {
	if r.Reps < 1 {
		return 1
	}
	if r.Quick && r.Reps > 3 {
		return 3
	}
	return r.Reps
}

// scale shrinks a workload size in quick mode.
func (r Runner) scale(full, quick int) int {
	if r.Quick {
		return quick
	}
	return full
}

// Func is an experiment: it produces the table for one paper artifact.
type Func func(Runner) (*Table, error)

// stppOrders runs the full STPP pipeline over a scene's read log and
// returns the X and Y EPC orders.
func stppOrders(s *scenario.Scene) (x, y []epcgen2.EPC, err error) {
	ps, err := s.ProfilesOf()
	if err != nil {
		return nil, nil, err
	}
	return stppOrdersFromProfiles(s, ps)
}

func stppOrdersFromProfiles(s *scenario.Scene, ps []*profile.Profile) (x, y []epcgen2.EPC, err error) {
	loc, err := stpp.NewLocalizer(s.STPPConfig())
	if err != nil {
		return nil, nil, err
	}
	res, err := loc.Localize(ps)
	if err != nil {
		return nil, nil, err
	}
	return res.XOrderEPCs(), res.YOrderEPCs(), nil
}

// accuracyOrZero evaluates ordering accuracy, treating evaluation errors
// (missing tags etc.) as zero accuracy — a scheme that loses tags scores
// what it deserves, and one bad repetition must not abort a 100-run sweep.
func accuracyOrZero(got, want []epcgen2.EPC) float64 {
	if len(got) != len(want) {
		// A scheme may drop tags (e.g. never read); score the tags it did
		// place, counting dropped ones as wrong.
		got = padOrder(got, want)
	}
	acc, err := metrics.OrderingAccuracy(got, want)
	if err != nil {
		return 0
	}
	return acc
}

// padOrder appends missing EPCs (in truth order) to a partial order so
// accuracy can be computed; the padding usually lands on wrong positions.
func padOrder(got, want []epcgen2.EPC) []epcgen2.EPC {
	have := make(map[epcgen2.EPC]bool, len(got))
	for _, e := range got {
		have[e] = true
	}
	out := append([]epcgen2.EPC(nil), got...)
	for _, e := range want {
		if !have[e] {
			out = append(out, e)
		}
	}
	// If got contains foreign EPCs, drop them.
	wantSet := make(map[epcgen2.EPC]bool, len(want))
	for _, e := range want {
		wantSet[e] = true
	}
	var clean []epcgen2.EPC
	for _, e := range out {
		if wantSet[e] {
			clean = append(clean, e)
		}
	}
	return clean
}

// meanAccuracy averages accuracy over repetitions of a scene builder.
func meanAccuracy(r Runner, build func(seed int64) (*scenario.Scene, error), axis string) (float64, error) {
	n := r.reps()
	accs, err := repMap(r, n, func(rep int) (float64, error) {
		s, err := build(r.Seed + int64(rep)*7919)
		if err != nil {
			return 0, err
		}
		x, y, err := stppOrders(s)
		if err != nil {
			return 0, err
		}
		switch axis {
		case "x":
			return accuracyOrZero(x, s.TruthX), nil
		case "y":
			return accuracyOrZero(y, s.TruthY), nil
		default:
			return 0, fmt.Errorf("experiment: axis %q", axis)
		}
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, a := range accs {
		sum += a
	}
	return sum / float64(n), nil
}

// boxOf summarizes a sample for the box-plot tables.
func boxOf(samples []float64) (min, q1, med, q3, max float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 1 {
			return s[0]
		}
		rank := p * float64(len(s)-1)
		lo := int(rank)
		hi := lo + 1
		if hi >= len(s) {
			return s[len(s)-1]
		}
		frac := rank - float64(lo)
		return s[lo] + frac*(s[hi]-s[lo])
	}
	return s[0], at(0.25), at(0.5), at(0.75), s[len(s)-1]
}
