package solve

import (
	"context"
	"sync"
	"testing"

	"pathdriverwash/internal/obs"
)

// drive counts up to n nodes on t, pruning every third and recording a
// better incumbent at every tenth; cancel, when set, runs after node
// 100. It stops early when the tally does.
func drive(t *Tally, n int, cancel func()) {
	for i := 0; i < n && t.Node(); i++ {
		if i%3 == 0 {
			t.Pruned++
		}
		if i%10 == 0 {
			t.Record(float64(1000 - i))
		}
		if i == 100 && cancel != nil {
			cancel()
		}
	}
}

// TestTallyFlushReconciles requires the live snapshot to lag the
// search by at most one stride while it runs and, after Done's
// reconciling flush, to equal the returned counts, for node counts
// below, at and above the stride and for a search cut off by
// cancellation.
func TestTallyFlushReconciles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		nodes  int
		cancel bool
	}{
		{"none", 0, false}, {"below", CheckpointStride - 1, false}, {"at", CheckpointStride, false},
		{"above", 3*CheckpointStride + 5, false}, {"stopped", 1000, true},
	} {
		prog := NewProgress()
		ctx, cancel := context.WithCancel(WithProgress(context.Background(), prog))
		tally := NewTally(ctx, "wash-path[3t r0]")
		var stop func()
		if tc.cancel {
			stop = cancel
		}
		drive(&tally, tc.nodes, stop)
		cancel()
		live := prog.Snapshot()
		if lag := int64(tally.Nodes) - live.Nodes; lag < 0 || lag > CheckpointStride {
			t.Errorf("%s: live nodes %d lag the search's %d by more than a stride", tc.name, live.Nodes, tally.Nodes)
		}
		st := tally.Done("optimal")
		snap := prog.Snapshot()
		if snap.Nodes != int64(st.Nodes) || snap.Pruned != int64(st.Pruned) ||
			snap.Incumbents != int64(len(st.Incumbents)) || snap.Model != st.Label {
			t.Errorf("%s: snapshot %+v, returned %+v", tc.name, snap, st)
		}
		if tc.cancel != tally.Stopped || tc.cancel && st.Nodes >= tc.nodes ||
			!tc.cancel && st.Nodes != tc.nodes {
			t.Errorf("%s: %d nodes, stopped %v", tc.name, st.Nodes, tally.Stopped)
		}
	}
}

// TestTallyCountsOnceAtExit requires a search's nodes, pruned counts
// and incumbents to reach the pdw_bb_* totals exactly once, at Done,
// whether or not span recording is enabled.
func TestTallyCountsOnceAtExit(t *testing.T) {
	totals := func() [3]int64 {
		return [3]int64{bbNodesTotal.Value(), bbPrunedTotal.Value(), bbIncumbentsTotal.Value()}
	}
	for _, enabled := range []bool{false, true} {
		if enabled {
			obs.Enable()
		}
		before := totals()
		tally := NewTally(context.Background(), "window-milp")
		drive(&tally, 200, nil)
		if mid := totals(); mid != before {
			t.Errorf("enabled=%v: totals moved before Done: %v -> %v", enabled, before, mid)
		}
		st := tally.Done("optimal")
		obs.Disable()
		want := [3]int64{int64(st.Nodes), int64(st.Pruned), int64(len(st.Incumbents))}
		after := totals()
		for i, name := range []string{"nodes", "pruned", "incumbents"} {
			if got := after[i] - before[i]; got != want[i] || got == 0 {
				t.Errorf("enabled=%v: %s total moved by %d, want %d", enabled, name, got, want[i])
			}
		}
	}
}

// TestTallySnapshotConcurrent reads the live view while a search
// publishes into it; run under -race it checks that the stride
// publication races no reader.
func TestTallySnapshotConcurrent(t *testing.T) {
	prog := NewProgress()
	tally := NewTally(WithProgress(context.Background(), prog), "window-milp")
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := int64(0)
		for {
			select {
			case <-done:
				return
			default:
			}
			s := prog.Snapshot()
			if s.Nodes < last {
				t.Errorf("live nodes went back from %d to %d", last, s.Nodes)
				return
			}
			last = s.Nodes
		}
	}()
	drive(&tally, 20000, nil)
	st := tally.Done("optimal")
	close(done)
	wg.Wait()
	if got := prog.Snapshot().Nodes; got != int64(st.Nodes) {
		t.Fatalf("final live nodes %d, returned %d", got, st.Nodes)
	}
}
