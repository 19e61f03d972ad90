package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"transched/internal/lp"
)

// randomGeneralMILP mirrors the enumeration test's generator: small
// bounded integer programs with LE/EQ rows and signed coefficients.
func randomGeneralMILP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(4)
	m := 1 + rng.Intn(4)
	const ub = 3
	p := &Problem{
		LP: lp.Problem{
			NumVars:   n,
			Objective: make([]float64, n),
			Upper:     make([]float64, n),
		},
	}
	for j := 0; j < n; j++ {
		p.LP.Objective[j] = math.Floor(rng.Float64()*11) - 5
		p.LP.Upper[j] = ub
		p.Integer = append(p.Integer, j)
	}
	for i := 0; i < m; i++ {
		entries := make([]lp.Entry, 0, n)
		for j := 0; j < n; j++ {
			v := math.Floor(rng.Float64()*7) - 3
			if v != 0 {
				entries = append(entries, lp.Entry{Var: j, Val: v})
			}
		}
		sense := lp.Sense(rng.Intn(2)) // LE or EQ
		rhs := math.Floor(rng.Float64()*12) - 2
		p.LP.AddRow(sense, rhs, "r", entries...)
	}
	return p
}

// TestMILPDifferentialAgainstReference pins the warm-started parallel
// solver to the preserved seed-era solver on exact (uncapped) runs:
// identical statuses, objectives to 1e-9 (scaled), and — the point of
// the rewrite — strictly fewer nodes and simplex iterations in
// aggregate across the corpus.
func TestMILPDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type cases struct {
		p    *Problem
		opts Options
	}
	var corpus []cases
	for i := 0; i < 12; i++ {
		corpus = append(corpus, cases{knapsackProblem(rng, 10+i), Options{}})
	}
	for i := 0; i < 60; i++ {
		corpus = append(corpus, cases{randomGeneralMILP(rng), Options{}})
	}
	// Seeded-incumbent variants exercise the cutoff paths.
	for i := 0; i < 8; i++ {
		p := knapsackProblem(rng, 12)
		corpus = append(corpus, cases{p, Options{IncumbentSet: true, IncumbentObjective: -5 * float64(i+1)}})
	}

	refNodes, refIters := 0, 0
	newNodes, newIters := 0, 0
	for i, c := range corpus {
		want, err := referenceSolve(c.p, c.opts)
		if err != nil {
			t.Fatalf("case %d: reference: %v", i, err)
		}
		got, err := Solve(c.p, c.opts)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.Status != want.Status {
			t.Fatalf("case %d: status %v, reference %v", i, got.Status, want.Status)
		}
		if want.Status == Optimal || want.Status == Feasible {
			tol := 1e-9 * (1 + math.Abs(want.Objective))
			if math.Abs(got.Objective-want.Objective) > tol {
				t.Fatalf("case %d: objective %.12g, reference %.12g", i, got.Objective, want.Objective)
			}
			// The incumbent must be integer feasible on its own terms.
			for _, j := range c.p.Integer {
				f := got.X[j] - math.Floor(got.X[j])
				if f > intEps && f < 1-intEps {
					t.Fatalf("case %d: fractional x[%d]=%g", i, j, got.X[j])
				}
			}
		}
		refNodes += want.Nodes
		refIters += want.SimplexIters
		newNodes += got.Nodes
		newIters += got.SimplexIters
	}
	t.Logf("nodes: reference %d, warm %d (%.2fx); simplex iters: reference %d, warm %d (%.2fx)",
		refNodes, newNodes, float64(refNodes)/float64(newNodes),
		refIters, newIters, float64(refIters)/float64(newIters))
	if newNodes >= refNodes {
		t.Fatalf("node count did not drop: reference %d, warm %d", refNodes, newNodes)
	}
	if newIters*2 >= refIters {
		t.Fatalf("simplex iterations did not drop by at least 2x: reference %d, warm %d", refIters, newIters)
	}
}

// TestMILPWorkersDeterminism pins the parallel contract: solutions,
// node counts, simplex iteration counts and every solution bit are
// identical at workers 1, 2 and 8.
func TestMILPWorkersDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	var corpus []*Problem
	for i := 0; i < 4; i++ {
		corpus = append(corpus, knapsackProblem(rng, 13+i))
	}
	for i := 0; i < 20; i++ {
		corpus = append(corpus, randomGeneralMILP(rng))
	}
	for i, p := range corpus {
		base, err := Solve(p, Options{Workers: 1})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, workers := range []int{2, 8} {
			got, err := Solve(p, Options{Workers: workers})
			if err != nil {
				t.Fatalf("case %d workers %d: %v", i, workers, err)
			}
			if got.Status != base.Status || got.Nodes != base.Nodes || got.SimplexIters != base.SimplexIters {
				t.Fatalf("case %d workers %d: (%v, %d nodes, %d iters) vs serial (%v, %d, %d)",
					i, workers, got.Status, got.Nodes, got.SimplexIters, base.Status, base.Nodes, base.SimplexIters)
			}
			if math.Float64bits(got.Objective) != math.Float64bits(base.Objective) ||
				math.Float64bits(got.Bound) != math.Float64bits(base.Bound) {
				t.Fatalf("case %d workers %d: objective/bound bits differ", i, workers)
			}
			if len(got.X) != len(base.X) {
				t.Fatalf("case %d workers %d: X length differs", i, workers)
			}
			for j := range got.X {
				if math.Float64bits(got.X[j]) != math.Float64bits(base.X[j]) {
					t.Fatalf("case %d workers %d: X[%d] bits differ: %v vs %v",
						i, workers, j, got.X[j], base.X[j])
				}
			}
		}
	}
}

// TestDeadlineRequiresClock pins the detclock contract: a deadline
// without a caller-supplied clock is an error, not a silent wall read.
func TestDeadlineRequiresClock(t *testing.T) {
	p := knapsackProblem(rand.New(rand.NewSource(1)), 8)
	if _, err := Solve(p, Options{Deadline: time.Unix(1, 0)}); err == nil {
		t.Fatal("Deadline without Clock accepted")
	}
}

// roundingProofProblem is a feasible MILP whose root relaxation is
// fractional and whose rounded points all violate the equality row, so
// no incumbent can exist before the first branch: min -3x -2y over
// integers x,y in [0,4] with 2x + 4y = 6 and x <= 2.5. The optimum is
// (1,1) at -5; the root vertex is (2.5, 0.25).
func roundingProofProblem() *Problem {
	p := &Problem{
		LP: lp.Problem{
			NumVars:   2,
			Objective: []float64{-3, -2},
			Upper:     []float64{2.5, 4},
		},
		Integer: []int{0, 1},
	}
	p.LP.AddRow(lp.EQ, 6, "eq", lp.Entry{Var: 0, Val: 2}, lp.Entry{Var: 1, Val: 4})
	return p
}

// TestDeadlineExpiry drives the solver on a synthetic clock that jumps
// a fixed step per reading, so expiry behaviour is fully replayable.
func TestDeadlineExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	t0 := time.Unix(1000, 0)

	// Already expired, nothing seeded, and the root admits no rounded
	// incumbent: Expired with a bound from the root.
	p := roundingProofProblem()
	now := t0
	clock := func() time.Time { now = now.Add(time.Hour); return now }
	s, err := Solve(p, Options{Deadline: t0, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Expired {
		t.Fatalf("status %v, want expired", s.Status)
	}
	if s.X != nil || math.IsInf(s.Bound, 0) {
		t.Fatalf("expired solution carries X=%v bound=%g", s.X, s.Bound)
	}

	// Already expired with a seeded incumbent: Expired still reports it.
	s, err = Solve(p, Options{Deadline: t0, Clock: clock, IncumbentSet: true, IncumbentObjective: -3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Expired || s.Objective != -3 {
		t.Fatalf("seeded expiry: %v obj %g", s.Status, s.Objective)
	}

	// On a knapsack the root rounding heuristic finds an incumbent, so
	// expiry after the root must come back Feasible, never Expired and
	// never an unproven Optimal.
	kp := knapsackProblem(rng, 16)
	s, err = Solve(kp, Options{Deadline: t0, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Feasible {
		t.Fatalf("knapsack expiry status %v, want feasible", s.Status)
	}
	if s.Bound > s.Objective+1e-9 {
		t.Fatalf("knapsack expiry: bound %g above incumbent %g", s.Bound, s.Objective)
	}

	// A few rounds of budget: any incumbent found must come back Feasible
	// with a consistent bound; otherwise Expired. Never an unproven
	// Optimal/Infeasible claim.
	sawFeasible := false
	for trial := 0; trial < 30; trial++ {
		p := knapsackProblem(rng, 18)
		now := t0
		tick := func() time.Time { now = now.Add(time.Second); return now }
		s, err := Solve(p, Options{Deadline: t0.Add(3500 * time.Millisecond), Clock: tick})
		if err != nil {
			t.Fatal(err)
		}
		switch s.Status {
		case Feasible:
			sawFeasible = true
			if s.Bound > s.Objective+1e-9 {
				t.Fatalf("trial %d: bound %g above incumbent %g", trial, s.Bound, s.Objective)
			}
			for _, j := range p.Integer {
				if f := s.X[j] - math.Floor(s.X[j]); f > intEps && f < 1-intEps {
					t.Fatalf("trial %d: fractional incumbent x[%d]=%g", trial, j, s.X[j])
				}
			}
		case Expired, Optimal, Infeasible:
			// Optimal/Infeasible can legitimately finish inside the budget
			// on easy draws; Expired when no incumbent surfaced in time.
		default:
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
	}
	if !sawFeasible {
		t.Log("deadline never caught an incumbent mid-search — acceptable but unexpected")
	}
}

// TestContextCancellation: a cancelled context stops the search like an
// expired deadline — Expired when no incumbent exists, Feasible when
// the root rounding already produced one.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := Solve(roundingProofProblem(), Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Expired {
		t.Fatalf("status %v, want expired", s.Status)
	}
	s, err = Solve(knapsackProblem(rand.New(rand.NewSource(3)), 16), Options{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Feasible {
		t.Fatalf("status %v, want feasible (rounded incumbent)", s.Status)
	}
}

// TestRootBasisReuse: re-solving with the previous run's root basis must
// return bit-identical results while spending no more simplex pivots.
func TestRootBasisReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		p := knapsackProblem(rng, 14)
		first, err := Solve(p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if first.RootBasis == nil {
			t.Fatalf("trial %d: no root basis exported", trial)
		}
		again, err := Solve(p, Options{RootBasis: first.RootBasis})
		if err != nil {
			t.Fatal(err)
		}
		if again.Status != first.Status || again.Nodes != first.Nodes ||
			math.Float64bits(again.Objective) != math.Float64bits(first.Objective) {
			t.Fatalf("trial %d: basis-seeded run diverged: (%v,%d,%g) vs (%v,%d,%g)",
				trial, again.Status, again.Nodes, again.Objective,
				first.Status, first.Nodes, first.Objective)
		}
		if again.SimplexIters > first.SimplexIters {
			t.Fatalf("trial %d: warm root spent more pivots (%d) than cold (%d)",
				trial, again.SimplexIters, first.SimplexIters)
		}
	}
}

// TestKnownLowerBoundStopsEarly: with the true optimum supplied as an
// external lower bound, the search may stop the moment the incumbent
// reaches it — with the same objective and no more nodes than the
// exact run.
func TestKnownLowerBoundStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		p := knapsackProblem(rng, 14)
		exact, err := Solve(p, Options{})
		if err != nil || exact.Status != Optimal {
			t.Fatalf("trial %d: %v %v", trial, err, exact)
		}
		seeded, err := Solve(p, Options{KnownLowerBound: exact.Objective, KnownLowerBoundSet: true})
		if err != nil {
			t.Fatal(err)
		}
		if seeded.Status != Optimal {
			t.Fatalf("trial %d: status %v with exact lower bound", trial, seeded.Status)
		}
		if math.Abs(seeded.Objective-exact.Objective) > 1e-9*(1+math.Abs(exact.Objective)) {
			t.Fatalf("trial %d: objective %g, exact %g", trial, seeded.Objective, exact.Objective)
		}
		if seeded.Nodes > exact.Nodes {
			t.Fatalf("trial %d: bound-seeded run explored more nodes (%d) than exact (%d)",
				trial, seeded.Nodes, exact.Nodes)
		}
	}
}

// BenchmarkMILPWarmStart measures the rewritten solver on a
// window-scale knapsack; BenchmarkMILPReference is the preserved
// seed-era solver on the same instance — the ratio is the headline
// number of EXPERIMENTS.md §"MILP warm-start trajectory".
func BenchmarkMILPWarmStart(b *testing.B) {
	p := knapsackProblem(rand.New(rand.NewSource(229)), 16)
	b.ReportAllocs()
	b.ResetTimer()
	nodes, itersTotal := 0, 0
	for i := 0; i < b.N; i++ {
		s, err := Solve(p, Options{})
		if err != nil || s.Status != Optimal {
			b.Fatalf("%v %v", err, s.Status)
		}
		nodes += s.Nodes
		itersTotal += s.SimplexIters
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
	b.ReportMetric(float64(itersTotal)/float64(nodes), "iters/node")
}

func BenchmarkMILPReference(b *testing.B) {
	p := knapsackProblem(rand.New(rand.NewSource(229)), 16)
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		s, err := referenceSolve(p, Options{})
		if err != nil || s.Status != Optimal {
			b.Fatalf("%v %v", err, s.Status)
		}
		nodes += s.Nodes
	}
	b.ReportMetric(float64(nodes)/b.Elapsed().Seconds(), "nodes/s")
}
