package solve

import (
	"context"
	"time"

	"pathdriverwash/internal/obs"
)

// Branch & bound totals, fed once per finished search by Tally.Done.
var (
	bbNodesTotal      = obs.Default().Counter("pdw_bb_nodes_total")
	bbPrunedTotal     = obs.Default().Counter("pdw_bb_pruned_total")
	bbIncumbentsTotal = obs.Default().Counter("pdw_bb_incumbents_total")
)

// Tally is the bookkeeping every exact search shares: its checkpoint,
// node and pruned counts and incumbent trajectory, published to the
// context's Progress every CheckpointStride nodes and to the pdw_bb_*
// totals once, by Done. The search keeps its model, bound and status.
type Tally struct {
	Nodes, Pruned int
	Stopped       bool // the context was done, or the search gave up
	Trajectory    []Incumbent

	cp          Checkpoint
	prog        *Progress
	label       string
	start       time.Time
	sent, sentP int // the nodes and pruned counts prog holds
}

// NewTally starts the tally of the search label under ctx.
func NewTally(ctx context.Context, label string) Tally {
	prog := ProgressFromContext(ctx)
	prog.SetModel(label)
	return Tally{cp: NewCheckpoint(ctx), prog: prog, label: label, start: time.Now()}
}

// Node counts a search node; once the context is done it reports false.
func (t *Tally) Node() bool {
	if t.Nodes%CheckpointStride == 0 && t.stride() {
		return false
	}
	t.Nodes++
	return true
}

// stride publishes the counts, polls the context and reports Stopped.
func (t *Tally) stride() bool {
	t.publish()
	t.Stopped = t.Stopped || t.cp.Err() != nil
	return t.Stopped
}

// Record adds an incumbent of objective obj at this node and publishes it.
func (t *Tally) Record(obj float64) {
	t.Trajectory = append(t.Trajectory, Incumbent{Obj: obj, Node: t.Nodes, Elapsed: time.Since(t.start)})
	t.prog.Incumbent(obj)
}

// SetBound publishes the search's best proven bound.
func (t *Tally) SetBound(b float64) { t.prog.SetBound(b) }

func (t *Tally) publish() {
	t.prog.AddNodes(int64(t.Nodes - t.sent))
	t.prog.AddPruned(int64(t.Pruned - t.sentP))
	t.sent, t.sentP = t.Nodes, t.Pruned
}

// Done publishes what the stride left, adds the counts to the pdw_bb_*
// totals once and returns the record, Optimal iff status is "optimal".
func (t *Tally) Done(status string) MILPStat {
	t.publish()
	bbNodesTotal.Add(int64(t.Nodes))
	bbPrunedTotal.Add(int64(t.Pruned))
	bbIncumbentsTotal.Add(int64(len(t.Trajectory)))
	return MILPStat{Label: t.label, Nodes: t.Nodes, Pruned: t.Pruned, Status: status,
		Optimal: status == "optimal", Wall: time.Since(t.start), Incumbents: t.Trajectory}
}
