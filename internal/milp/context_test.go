package milp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"pathdriverwash/internal/lp"
	"pathdriverwash/internal/solve"
)

// hardKnapsack builds a strongly correlated knapsack whose branch &
// bound tree is far too large to finish within the test's sleep, so a
// mid-search cancel is guaranteed to land while the solver is working.
func hardKnapsack(n int) (*Problem, []float64) {
	p := NewProblem(0)
	coefs := map[int]float64{}
	total := 0.0
	for i := 0; i < n; i++ {
		v := p.AddBinary()
		w := float64(10 + 3*i)
		p.SetObjective(v, -(w + 5)) // maximize value (minimize negation)
		coefs[v] = w
		total += w
	}
	p.LP.AddConstraint(coefs, lp.LE, total/2, "cap")
	return p, make([]float64, n) // all-zeros incumbent is always feasible
}

func TestSolveContextCancelReturnsIncumbentFast(t *testing.T) {
	p, inc := hardKnapsack(45)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		r   Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := SolveContext(ctx, p, Options{TimeLimit: time.Minute, Incumbent: inc})
		done <- outcome{r, err}
	}()

	time.Sleep(200 * time.Millisecond)
	t0 := time.Now()
	cancel()
	o := <-done
	latency := time.Since(t0)

	if o.err != nil {
		t.Fatalf("cancellation must not be an error: %v", o.err)
	}
	if latency > 100*time.Millisecond {
		t.Fatalf("returned %v after cancel, want <100ms", latency)
	}
	if o.r.Wall < 150*time.Millisecond {
		t.Skipf("solver finished in %v before the cancel landed; instance too easy here", o.r.Wall)
	}
	if o.r.Status != Feasible {
		t.Fatalf("status = %v, want Feasible (best incumbent on cancel)", o.r.Status)
	}
	if o.r.X == nil {
		t.Fatal("incumbent lost on cancellation")
	}
	if err := p.CheckFeasible(o.r.X); err != nil {
		t.Fatalf("returned incumbent infeasible: %v", err)
	}
}

func TestSolveContextDeadlineBeatsTimeLimit(t *testing.T) {
	// A context deadline earlier than Options.TimeLimit must win.
	p, inc := hardKnapsack(45)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	r, err := SolveContext(ctx, p, Options{TimeLimit: time.Minute, Incumbent: inc})
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("ran %v; the 150ms ctx deadline should have stopped it", el)
	}
	if r.X == nil {
		t.Fatal("incumbent lost on deadline expiry")
	}
}

func TestSolveContextPreCanceled(t *testing.T) {
	p, inc := hardKnapsack(20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, err := SolveContext(ctx, p, Options{Incumbent: inc})
	if err != nil {
		t.Fatalf("pre-canceled ctx must not error: %v", err)
	}
	if r.Status != Feasible || r.X == nil {
		t.Fatalf("status = %v X = %v, want the provided incumbent back", r.Status, r.X)
	}
}

func TestBadIncumbentIsErrInfeasible(t *testing.T) {
	p := NewProblem(0)
	v := p.AddBinary()
	p.LP.AddConstraint(map[int]float64{v: 1}, lp.LE, 0, "zero")
	_, err := Solve(p, Options{Incumbent: []float64{1}})
	if err == nil {
		t.Fatal("infeasible incumbent must be rejected")
	}
	if !errors.Is(err, solve.ErrInfeasible) {
		t.Fatalf("err = %v, want errors.Is(err, solve.ErrInfeasible)", err)
	}
}

// coveringILP builds a seeded 0-1 set-covering problem: n binaries with
// costs 1-10 and n rows, each satisfied by one of five random
// variables. All ones is a feasible (and poor) incumbent.
func coveringILP(n int, seed int64) (*Problem, []float64) {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(0)
	ones := make([]float64, n)
	for i := range n {
		p.SetObjective(p.AddBinary(), float64(1+rng.Intn(10)))
		ones[i] = 1
	}
	for r := range n {
		row := map[int]float64{}
		for len(row) < 5 {
			row[rng.Intn(n)] = 1
		}
		p.LP.AddConstraint(row, lp.GE, 1, fmt.Sprintf("cover-%d", r))
	}
	return p, ones
}

// TestDeadlineMidRelaxationKeepsBound is the regression test for a
// bound lost to a deadline: the 30 ms cap expires inside the root
// relaxation, after the root left the queue. The search must report
// that node's bound, not the incumbent's, so the gap stays open.
func TestDeadlineMidRelaxationKeepsBound(t *testing.T) {
	p, ones := coveringILP(100, 1)
	r, err := Solve(p, Options{TimeLimit: 30 * time.Millisecond, Incumbent: ones})
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Feasible {
		t.Fatalf("status = %v after %d nodes, want feasible(limit)", r.Status, r.Nodes)
	}
	if r.Bound >= r.Obj || r.Gap() <= 0 {
		t.Fatalf("%d nodes: Bound %g, Obj %g, Gap %g: a search its deadline cut off claims a closed gap",
			r.Nodes, r.Bound, r.Obj, r.Gap())
	}
}
