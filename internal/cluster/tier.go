package cluster

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"hieradmo/internal/checkpoint"
	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/membership"
	"hieradmo/internal/model"
	"hieradmo/internal/rng"
	"hieradmo/internal/robust"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// tierNode is one aggregating node of a run, parameterized by its level: it
// collects child reports every τℓ iterations, applies the level's
// aggregation rule and momentum update, redistributes the result, and — on
// every level but the root — synchronizes with its own parent every
// τ_{ℓ−1}/τℓ rounds. The root additionally owns the accuracy curve and the
// run Result.
//
// Two collection semantics exist, chosen by what the children are. The
// leaf-parent level collects training-leaf reports and renormalizes data
// weights over the survivors of a partial round, exactly like the
// simulation's partial-participation path; under dynamic membership its
// cohort follows the schedule. Every other level's children are aggregators
// with durable state, so a missing child's last report is substituted for at
// most one consecutive round before the run fails fast.
type tierNode struct {
	cfg  *fl.Config
	hn   *fl.Harness
	ts   *treeSpec
	lvl  int
	idx  int
	ep   transport.Endpoint
	opts Options
	rec  *faultRecorder
	reg  *checkpoint.Registry

	//flvet:allow ckptstate -- yPlusNext is per-sync scratch, overwritten by WeightedSum before use
	yMinus, yPlus, yPlusNext, xPlus tensor.Vector
	// lastY is the state most recently redistributed to the children, the
	// velocity-signal reference and the robust deviation reference at
	// momentum levels.
	lastY tensor.Vector
	// x0 is the shared initialization, the gauge reference for the Σy
	// adaptation signal.
	x0 tensor.Vector
	// losses holds each child's most recently reported loss, keyed by the
	// child's index in its level (cohorts change under dynamic membership).
	losses map[int]float64
	// pending stashes reports from children running ahead of this node.
	pending []transport.Message
	// epoch is the membership epoch of the last snapshotted round, persisted
	// so a resume can verify it restores the adapted tree.
	epoch int
	// agg is the level's robust aggregation rule, nil for plain mean (the
	// bit-exact WeightedSum path). prevY/prevX are the deviation references
	// at non-momentum levels, where the previous state would otherwise be
	// overwritten mid-reduction.
	agg robust.Aggregator
	//flvet:allow ckptstate -- per-sync scratch, refilled from yMinus/xPlus before every use
	prevY, prevX tensor.Vector

	// lastYRep/lastXRep/missStreak implement the substitution semantics at
	// levels whose children are aggregators; nil at the leaf-parent.
	lastYRep, lastXRep []tensor.Vector
	missStreak         []int

	// res and weightedLoss live on the root (res == nil elsewhere).
	res          *fl.Result
	weightedLoss float64
}

func newTierNode(cfg *fl.Config, hn *fl.Harness, ts *treeSpec, lvl, idx int, x0 tensor.Vector, ep transport.Endpoint, opts Options) (*tierNode, error) {
	n := &tierNode{
		cfg:       cfg,
		hn:        hn,
		ts:        ts,
		lvl:       lvl,
		idx:       idx,
		ep:        ep,
		opts:      opts,
		yMinus:    x0.Clone(),
		yPlus:     x0.Clone(),
		yPlusNext: tensor.NewVector(len(x0)),
		xPlus:     x0.Clone(),
		lastY:     x0.Clone(),
		x0:        x0.Clone(),
		losses:    make(map[int]float64),
	}
	if lvl != ts.leafParent() {
		fan := len(ts.children[lvl][idx])
		n.lastYRep = make([]tensor.Vector, fan)
		n.lastXRep = make([]tensor.Vector, fan)
		n.missStreak = make([]int, fan)
		for c := 0; c < fan; c++ {
			n.lastYRep[c] = x0.Clone()
			n.lastXRep[c] = x0.Clone()
		}
	}
	agg, err := newAggregator(ts.topo.Levels[lvl].Agg)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", n.id(), err)
	}
	if n.agg = agg; agg != nil && !ts.momentum[lvl] {
		n.prevY = tensor.NewVector(len(x0))
		n.prevX = tensor.NewVector(len(x0))
	}
	return n, nil
}

func (n *tierNode) id() string { return n.ts.ids[n.lvl][n.idx] }

// childSlot resolves a sender ID to its position in children, this node's
// child list for the round; -1 means a node of the child level that is not
// a current child.
func (n *tierNode) childSlot(from string, children []int) (int, error) {
	idx, err := n.childIndex(from)
	if err != nil {
		return 0, err
	}
	return slices.Index(children, idx), nil
}

// nvPerReport is the vector count a child report carries: training leaves
// send their two accumulators alongside [y, x].
func (n *tierNode) nvPerReport() int {
	if n.lvl == n.ts.leafParent() {
		return 4
	}
	return 2
}

// initCheckpoint binds the node's aggregation state to its snapshot registry
// and applies the Resume option.
func (n *tierNode) initCheckpoint() (int, error) {
	reg, err := nodeRegistry(n.cfg, n.ts.topo, n.opts, n.id())
	if err != nil || reg == nil {
		return 0, err
	}
	reg.Vector("yMinus", n.yMinus)
	reg.Vector("yPlus", n.yPlus)
	reg.Vector("xPlus", n.xPlus)
	reg.Vector("lastY", n.lastY)
	reg.Dynamic("losses", n.encodeLosses, n.decodeLosses)
	for c := range n.lastYRep {
		reg.Vector(fmt.Sprintf("lastY/%d", c), n.lastYRep[c])
		reg.Vector(fmt.Sprintf("lastX/%d", c), n.lastXRep[c])
		reg.Int(fmt.Sprintf("missStreak/%d", c), &n.missStreak[c])
	}
	if n.ts.memb != nil {
		reg.Int("membEpoch", &n.epoch)
	}
	if n.res != nil {
		res := n.res
		reg.Float("weightedLoss", &n.weightedLoss)
		reg.Dynamic("curve",
			func() []float64 {
				flat := make([]float64, 0, 3*len(res.Curve))
				for _, pt := range res.Curve {
					flat = append(flat, float64(pt.Iter), pt.TestAcc, pt.TrainLoss)
				}
				return flat
			},
			func(flat []float64) error {
				if len(flat)%3 != 0 {
					return fmt.Errorf("curve holds %d values, not triples", len(flat))
				}
				curve := make([]fl.Point, 0, len(flat)/3)
				for i := 0; i+2 < len(flat); i += 3 {
					iter := int(flat[i])
					if float64(iter) != flat[i] {
						return fmt.Errorf("curve iteration %v is not an integer", flat[i])
					}
					curve = append(curve, fl.Point{Iter: iter, TestAcc: flat[i+1], TrainLoss: flat[i+2]})
				}
				res.Curve = curve
				return nil
			})
	}
	reg.Dynamic("pending", n.savePending, n.loadPending)
	n.reg = reg
	return restoreOrClear(reg, n.opts.Resume, n.opts.Telemetry, n.id())
}

// savePending and loadPending snapshot the ride-ahead stash, keying each
// sender by its index in the child level.
func (n *tierNode) savePending() []float64 {
	return encodePending(n.pending, n.nvPerReport(), len(n.x0), n.childIndex)
}

func (n *tierNode) loadPending(flat []float64) error {
	msgs, err := decodePending(flat, n.nvPerReport(), len(n.x0), KindTierReport, n.childName)
	if err != nil {
		return err
	}
	n.pending = msgs
	return nil
}

// childIndex and childName map between the IDs of the child level's nodes
// and their indices; an out-of-range index names nobody and fails admission.
func (n *tierNode) childIndex(id string) (int, error) {
	at, ok := n.ts.at[id]
	if !ok || at.lvl != n.lvl+1 {
		return 0, fmt.Errorf("cluster: %q is not a node of level %d", id, n.lvl+1)
	}
	return at.idx, nil
}

func (n *tierNode) childName(idx int) string {
	if ids := n.ts.ids[n.lvl+1]; idx < len(ids) {
		return ids[idx]
	}
	return ""
}

// encodeLosses flattens the loss cache as [child, loss] pairs in child
// order for snapshotting.
func (n *tierNode) encodeLosses() []float64 {
	keys := make([]int, 0, len(n.losses))
	for c := range n.losses {
		keys = append(keys, c)
	}
	slices.Sort(keys)
	out := make([]float64, 0, 2*len(keys))
	for _, c := range keys {
		out = append(out, float64(c), n.losses[c])
	}
	return out
}

func (n *tierNode) decodeLosses(flat []float64) error {
	if len(flat)%2 != 0 {
		return fmt.Errorf("loss cache holds %d values, not pairs", len(flat))
	}
	n.losses = make(map[int]float64, len(flat)/2)
	for off := 0; off < len(flat); off += 2 {
		n.losses[int(flat[off])] = flat[off+1]
	}
	return nil
}

// redistribute sends the round-k update to every child; resend marks a
// resume's repeat of the snapshotted round.
func (n *tierNode) redistribute(k int, resend bool) error {
	update := transport.Message{
		Kind:    KindTierUpdate,
		Round:   k * n.ts.tau(n.lvl),
		Vectors: [][]float64{n.yMinus, n.xPlus},
	}
	if n.ts.memb != nil && n.lvl == n.ts.leafParent() {
		return n.redistributeCohort(k, update, resend)
	}
	for _, c := range n.ts.children[n.lvl][n.idx] {
		if err := n.ep.Send(n.ts.ids[n.lvl+1][c], update); err != nil {
			return fmt.Errorf("cluster: %s redistribute to %s: %w", n.id(), n.ts.ids[n.lvl+1][c], err)
		}
	}
	return nil
}

// run executes the node until T. The root returns the run Result; every
// other level returns (nil, nil) on success.
func (n *tierNode) run() (*fl.Result, error) {
	tau := n.ts.tau(n.lvl)
	numRounds := n.cfg.T / tau
	if n.lvl == 0 {
		n.res = n.hn.NewResult(n.ts.alg)
	}
	start, err := n.initCheckpoint()
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", n.id(), err)
	}
	if start > 0 {
		if m := n.ts.memb; m != nil && n.epoch != m.sched.EpochIndex(n.ts.leafRound(n.lvl, start)) {
			return nil, fmt.Errorf("cluster: %s resume at round %d: snapshot epoch %d, schedule says %d: membership schedule divergence",
				n.id(), start, n.epoch, m.sched.EpochIndex(n.ts.leafRound(n.lvl, start)))
		}
		// The snapshot precedes its round's redistribution, so re-send that
		// round's update on resume: children already past it discard the
		// duplicate as stale, children still waiting adopt it and catch up.
		if err := n.redistribute(start, true); err != nil {
			return nil, fmt.Errorf("cluster: %s resume: %w", n.id(), err)
		}
		if err := n.announceRetier(start, true); err != nil {
			return nil, fmt.Errorf("cluster: %s resume: %w", n.id(), err)
		}
	}
	for k := start + 1; k <= numRounds; k++ {
		if interrupted(n.opts.Interrupt) {
			return nil, fmt.Errorf("cluster: %s: %w", n.id(), ErrInterrupted)
		}
		adopted, reports, idx, err := n.collect(k)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s round %d: %w", n.id(), k, err)
		}
		if adopted > 0 {
			// The parent completed round `adopted` while this node was still
			// collecting: the adopted state supersedes this round's local
			// aggregation, so rejoin at the adopted round.
			n.rec.fastforward(n.id(), k*tau, adopted)
			k = adopted / tau
		} else {
			if err := n.update(reports, idx, k); err != nil {
				return nil, fmt.Errorf("cluster: %s round %d: %w", n.id(), k, err)
			}
			if n.lvl > 0 && k%n.ts.topo.SyncsPerParent(n.lvl) == 0 {
				adopted, err := n.parentSync(k)
				if err != nil {
					return nil, fmt.Errorf("cluster: %s round %d: %w", n.id(), k, err)
				}
				if r := adopted / tau; r > k {
					// The parent moved on without this node (a lost update or
					// report left it a sync behind); jump to the adopted round
					// so it rejoins the parent's cadence instead of trailing —
					// and having every report rejected as stale — forever.
					n.rec.fastforward(n.id(), k*tau, adopted)
					k = r
				}
			}
			if n.res != nil && k < numRounds && n.cfg.EvalEvery > 0 {
				acc, err := model.Accuracy(n.cfg.Model, n.xPlus, n.hn.EvalSet())
				if err != nil {
					return nil, fmt.Errorf("cluster: %s eval round %d: %w", n.id(), k, err)
				}
				n.res.Curve = append(n.res.Curve, fl.Point{
					Iter:      k * tau,
					TestAcc:   acc,
					TrainLoss: n.weightedLoss,
				})
				n.recordEval(k*tau, acc, n.weightedLoss, false)
			}
		}
		// Settle lastY and snapshot BEFORE the redistribution: a resumed node
		// re-sends the snapshotted round's update, so children can never be
		// stranded waiting on one that died with this process. (lastY only
		// feeds the next round's velocity signal, so refreshing it ahead of
		// the sends changes no message.)
		if err := n.lastY.CopyFrom(n.yMinus); err != nil {
			return nil, err
		}
		if m := n.ts.memb; m != nil {
			n.epoch = m.sched.EpochIndex(n.ts.leafRound(n.lvl, k))
		}
		if err := saveSnapshot(n.reg, k, n.opts.Telemetry, n.id()); err != nil {
			return nil, fmt.Errorf("cluster: %s round %d: %w", n.id(), k, err)
		}
		if err := n.redistribute(k, false); err != nil {
			return nil, err
		}
		if err := n.announceRetier(k, false); err != nil {
			return nil, err
		}
	}
	if n.res == nil {
		return nil, nil
	}
	acc, err := model.Accuracy(n.cfg.Model, n.xPlus, n.cfg.Test)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s final eval: %w", n.id(), err)
	}
	n.res.FinalAcc = acc
	n.res.FinalLoss = n.weightedLoss
	n.res.Curve = append(n.res.Curve, fl.Point{Iter: n.cfg.T, TestAcc: acc, TrainLoss: n.weightedLoss})
	n.recordEval(n.cfg.T, acc, n.weightedLoss, true)
	return n.res, nil
}

// recordEval mirrors one root accuracy measurement onto the telemetry sink.
func (n *tierNode) recordEval(t int, acc, loss float64, final bool) {
	sink := n.opts.Telemetry
	m := sink.M()
	m.Evals.Inc()
	m.TestAccuracy.Set(acc)
	m.TrainLoss.Set(loss)
	if sink.Tracing() {
		sink.Emit("eval",
			telemetry.Int("t", t),
			telemetry.Float("acc", acc),
			telemetry.Float("loss", loss),
			telemetry.Bool("final", final))
	}
}

// collect gathers the round-k child reports under the level's semantics. The
// third/fourth results (report slots and sorted present indices) are only
// used at the leaf-parent level; substitution levels adopt reports into
// their standing lastYRep/lastXRep buffers instead. A positive first result
// is the round of a parent update adopted mid-collect (the parent moved on
// without this node); the caller fast-forwards to it.
func (n *tierNode) collect(k int) (int, []transport.Message, []int, error) {
	if n.lvl == n.ts.leafParent() {
		return n.collectLeafReports(k)
	}
	adopted, err := n.collectSubstituted(k)
	return adopted, nil, nil, err
}

// adoptParentUpdate handles a KindTierUpdate arriving while this node
// collects child reports. An update for the current round or later means the
// parent already completed a sync without this node: adopt it (tolerant mode
// only) and return its round. Stale updates are counted and skipped.
func (n *tierNode) adoptParentUpdate(msg transport.Message, want int) (int, error) {
	if n.lvl > 0 && n.opts.tolerant() && msg.Round >= want && len(msg.Vectors) == 2 {
		if err := n.yMinus.CopyFrom(msg.Vectors[0]); err != nil {
			return 0, err
		}
		if err := n.xPlus.CopyFrom(msg.Vectors[1]); err != nil {
			return 0, err
		}
		return msg.Round, nil
	}
	n.rec.stale(n.id())
	return 0, nil
}

// collectLeafReports is the leaf-parent collection. Strict mode requires the
// round's full cohort within RecvTimeout; quorum mode grants stragglers
// StragglerDeadline of grace from quorum attainment (anchoring the grace at
// quorum rather than at collection start keeps it from being consumed by
// upstream tiers' own waits), then proceeds with the survivors. Duplicates
// and stale rounds are rejected and counted; future-round reports (leaves
// that rode out a lost update) are stashed in quorum mode. Under dynamic
// membership the cohort — and with it the quorum denominator — is the
// round's live cohort from the schedule. The returned slots and sorted
// present indices are positions in that cohort.
func (n *tierNode) collectLeafReports(k int) (int, []transport.Message, []int, error) {
	cohort := n.ts.layoutAt(n.lvl, k).children[n.lvl][n.idx]
	numChildren := len(cohort)
	want := k * n.ts.tau(n.lvl)
	quorum := numChildren
	if n.opts.tolerant() {
		quorum = quorumCount(n.opts.MinQuorum, numChildren)
	}
	reports := make([]transport.Message, numChildren)
	seen := make([]bool, numChildren)
	got := 0
	if len(n.pending) > 0 {
		keep := n.pending[:0]
		for _, msg := range n.pending {
			switch {
			case msg.Round > want:
				keep = append(keep, msg)
			case msg.Round < want:
				n.rec.stale(n.id())
			default:
				ok, err := n.admitLeafReport(msg, cohort, reports, seen)
				if err != nil {
					return 0, nil, nil, err
				}
				if ok {
					got++
				}
			}
		}
		n.pending = keep
	}
	deadline := n.opts.now().Add(n.opts.RecvTimeout)
	if n.opts.tolerant() {
		// A silent cohort may be riding out a lost update for up to a full
		// RecvTimeout of its own; wait one straggler grace beyond that
		// horizon so their recovery reports are not missed by a hair.
		deadline = deadline.Add(n.opts.StragglerDeadline)
	}
	var stragglerBy time.Time
	for got < numChildren {
		var wait time.Duration
		if got >= quorum {
			if stragglerBy.IsZero() {
				stragglerBy = n.opts.now().Add(n.opts.StragglerDeadline)
			}
			wait = stragglerBy.Sub(n.opts.now())
			if wait <= 0 {
				break // quorum reached, stragglers forfeited this round
			}
		} else {
			wait = deadline.Sub(n.opts.now())
			if wait <= 0 {
				return 0, nil, nil, fmt.Errorf("%d/%d reports (quorum %d): %w",
					got, numChildren, quorum, transport.ErrTimeout)
			}
		}
		msg, err := recvInterruptible(n.ep, wait, n.opts)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return 0, nil, nil, err
		}
		switch msg.Kind {
		case KindReassign:
			if err := n.checkReassign(msg); err != nil {
				return 0, nil, nil, err
			}
			continue
		case KindTierUpdate:
			adopted, err := n.adoptParentUpdate(msg, want)
			if err != nil || adopted > 0 {
				return adopted, nil, nil, err
			}
			continue
		}
		if err := expectKind(msg, KindTierReport); err != nil {
			return 0, nil, nil, err
		}
		if msg.Round < want {
			n.rec.stale(n.id())
			continue
		}
		if msg.Round > want {
			if n.opts.tolerant() {
				n.pending = append(n.pending, msg)
				continue
			}
			return 0, nil, nil, fmt.Errorf("cluster: report from %q for future round %d (want %d)",
				msg.From, msg.Round, want)
		}
		ok, err := n.admitLeafReport(msg, cohort, reports, seen)
		if err != nil {
			return 0, nil, nil, err
		}
		if ok {
			got++
		}
	}
	idx := make([]int, 0, got)
	for i, ok := range seen {
		if ok {
			idx = append(idx, i)
		}
	}
	n.rec.missingTier(n.ts.topo.Levels[n.lvl].Name, n.lvl, want, numChildren-got, true)
	return 0, reports, idx, nil
}

// admitLeafReport validates one current-round leaf report and slots it by
// the sender's position in the round's cohort. Under dynamic membership a
// report from a leaf outside the cohort (a just-reassigned leaf's report
// that crossed the boundary) is stale; in a static tree it is a protocol
// error.
func (n *tierNode) admitLeafReport(msg transport.Message, cohort []int, reports []transport.Message, seen []bool) (bool, error) {
	i, err := n.childSlot(msg.From, cohort)
	if err != nil {
		return false, err
	}
	if i < 0 {
		if n.ts.memb != nil {
			n.rec.stale(n.id())
			return false, nil
		}
		return false, fmt.Errorf("cluster: %s got a report from %q, another node's child", n.id(), msg.From)
	}
	if len(msg.Vectors) != 4 {
		return false, fmt.Errorf("cluster: report from %q carries %d vectors, want 4",
			msg.From, len(msg.Vectors))
	}
	if seen[i] {
		// A duplicate must not overwrite the slot while inflating the
		// reporter count: reject it and keep counting distinct reporters.
		n.rec.duplicate(n.id())
		return false, nil
	}
	seen[i] = true
	reports[i] = msg
	n.losses[cohort[i]] = msg.Scalars[ScalarLoss]
	return true, nil
}

// collectSubstituted is the collection at levels whose children are
// aggregators: the original cloud behavior. Fresh reports land in the
// standing lastYRep/lastXRep buffers; a missing child's previous state is
// substituted for at most one consecutive round before the run fails fast.
// The straggler window budgets one grace period per intervening child round
// plus this node's own.
func (n *tierNode) collectSubstituted(k int) (int, error) {
	numChildren := len(n.lastYRep)
	want := k * n.ts.tau(n.lvl)
	quorum := numChildren
	if n.opts.tolerant() {
		quorum = quorumCount(n.opts.MinQuorum, numChildren)
	}
	fresh := make([]bool, numChildren)
	got := 0
	if len(n.pending) > 0 {
		keep := n.pending[:0]
		for _, msg := range n.pending {
			switch {
			case msg.Round > want:
				keep = append(keep, msg)
			case msg.Round < want:
				n.rec.stale(n.id())
			default:
				ok, err := n.admitSubReport(msg, fresh)
				if err != nil {
					return 0, err
				}
				if ok {
					got++
				}
			}
		}
		n.pending = keep
	}
	deadline := n.opts.now().Add(n.opts.RecvTimeout)
	if n.opts.tolerant() {
		deadline = deadline.Add(n.opts.StragglerDeadline)
	}
	childRounds := n.ts.tau(n.lvl) / n.ts.tau(n.lvl+1)
	var stragglerBy time.Time
	for got < numChildren {
		var wait time.Duration
		if got >= quorum {
			if stragglerBy.IsZero() {
				stragglerBy = n.opts.now().Add(time.Duration(childRounds+1) * n.opts.StragglerDeadline)
			}
			wait = stragglerBy.Sub(n.opts.now())
			if wait <= 0 {
				break
			}
		} else {
			wait = deadline.Sub(n.opts.now())
			if wait <= 0 {
				return 0, fmt.Errorf("%d/%d child reports (quorum %d): %w",
					got, numChildren, quorum, transport.ErrTimeout)
			}
		}
		msg, err := recvInterruptible(n.ep, wait, n.opts)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return 0, err
		}
		if msg.Kind == KindTierUpdate {
			adopted, err := n.adoptParentUpdate(msg, want)
			if err != nil || adopted > 0 {
				return adopted, err
			}
			continue
		}
		if err := expectKind(msg, KindTierReport); err != nil {
			return 0, err
		}
		if msg.Round < want {
			n.rec.stale(n.id())
			continue
		}
		if msg.Round > want {
			if n.opts.tolerant() {
				n.pending = append(n.pending, msg)
				continue
			}
			return 0, fmt.Errorf("cluster: report from %q for future round %d (want %d)",
				msg.From, msg.Round, want)
		}
		ok, err := n.admitSubReport(msg, fresh)
		if err != nil {
			return 0, err
		}
		if ok {
			got++
		}
	}
	missing := 0
	for c, ok := range fresh {
		if ok {
			n.missStreak[c] = 0
			continue
		}
		missing++
		n.missStreak[c]++
		if n.missStreak[c] > 1 {
			return 0, fmt.Errorf("cluster: child %s missed %d consecutive rounds of %s: quorum unreachable: %w",
				n.ts.ids[n.lvl+1][n.ts.children[n.lvl][n.idx][c]], n.missStreak[c], n.id(), transport.ErrTimeout)
		}
	}
	n.rec.missingTier(n.ts.topo.Levels[n.lvl].Name, n.lvl, want, missing, false)
	return 0, nil
}

// admitSubReport validates one current-round aggregator report and adopts
// its state into the standing buffers (they are checkpoint-registered by
// reference, so the backing arrays must keep holding the live state).
func (n *tierNode) admitSubReport(msg transport.Message, fresh []bool) (bool, error) {
	children := n.ts.children[n.lvl][n.idx]
	c, err := n.childSlot(msg.From, children)
	if err != nil {
		return false, err
	}
	if c < 0 {
		return false, fmt.Errorf("cluster: %s got a report from %q, another node's child", n.id(), msg.From)
	}
	if len(msg.Vectors) != 2 {
		return false, fmt.Errorf("cluster: report from %q carries %d vectors, want 2",
			msg.From, len(msg.Vectors))
	}
	if fresh[c] {
		n.rec.duplicate(n.id())
		return false, nil
	}
	fresh[c] = true
	if err := n.lastYRep[c].CopyFrom(msg.Vectors[0]); err != nil {
		return false, err
	}
	if err := n.lastXRep[c].CopyFrom(msg.Vectors[1]); err != nil {
		return false, err
	}
	n.losses[children[c]] = msg.Scalars[ScalarLoss]
	return true, nil
}

// update executes the level's aggregation for round k: the Algorithm 1
// line 10–13 update at momentum levels (with optional γℓ adaptation at the
// leaf-parent), or the plain line 18–19 average at non-momentum levels —
// each the exact arithmetic of the original role it generalizes.
func (n *tierNode) update(reports []transport.Message, idx []int, k int) error {
	sink := n.opts.Telemetry
	var aggStart time.Time
	if sink != nil {
		aggStart = time.Now()
	}
	lay := n.ts.layoutAt(n.lvl, k)
	children, full := lay.children[n.lvl][n.idx], lay.weights[n.lvl][n.idx]
	leafP := n.lvl == n.ts.leafParent()
	var (
		weights         []float64
		ys, xs          []tensor.Vector
		gradSums, ySums []tensor.Vector
		participants    int
	)
	if leafP {
		weights = make([]float64, len(idx))
		for j, i := range idx {
			weights[j] = full[i]
		}
		// Renormalize only under a partial cohort: at full strength the
		// data weights are used verbatim, bit-identical to the simulation.
		if len(idx) < len(full) {
			var wsum float64
			for _, w := range weights {
				wsum += w
			}
			for j := range weights {
				weights[j] /= wsum
			}
		}
		ys = make([]tensor.Vector, len(idx))
		xs = make([]tensor.Vector, len(idx))
		gradSums = make([]tensor.Vector, len(idx))
		ySums = make([]tensor.Vector, len(idx))
		for j, i := range idx {
			msg := reports[i]
			ys[j] = msg.Vectors[0]
			xs[j] = msg.Vectors[1]
			gradSums[j] = msg.Vectors[2]
			ySums[j] = msg.Vectors[3]
		}
		participants = len(idx)
	} else {
		weights = full
		ys, xs = n.lastYRep, n.lastXRep
		participants = len(full)
	}

	gamma := n.ts.gamma[n.lvl]
	var cosVal float64
	adaptive := n.ts.adapt[n.lvl]
	if adaptive {
		signals := make([]tensor.Vector, len(ys))
		if n.opts.Signal == core.SignalVelocity {
			for j := range ys {
				v := ys[j].Clone()
				if err := v.Sub(n.lastY); err != nil {
					return err
				}
				signals[j] = v
			}
		} else {
			// Σy centred at the shared initialization, matching the
			// simulation's gauge (see internal/core).
			for j := range ySums {
				centered := ySums[j].Clone()
				if err := centered.AXPY(-float64(n.ts.tau(n.lvl)), n.x0); err != nil {
					return err
				}
				signals[j] = centered
			}
		}
		cos, err := core.EdgeCosine(weights, gradSums, signals)
		if err != nil {
			return err
		}
		cosVal = cos
		gamma = core.ClampGamma(cos, n.opts.Ceiling)
		if gamma == 0 {
			sink.M().GammaZeroed.Inc()
		}
		sink.M().EdgeCosine.Set(cos)
	}
	// γℓ migration: on the first aggregation after this leaf-parent's cohort
	// changed (join, leave, or re-tiering), the momentum factor carried from
	// the old cohort is migrated per the configured policy. Zeroing — the
	// default — mirrors the paper's obtuse-angle reset: with γℓ = 0 line 13
	// collapses to the plain average, refreshing the momentum base.
	if m := n.ts.memb; leafP && m != nil {
		if frac, changed := m.sched.Overlap(k, n.idx); changed {
			switch m.policy {
			case membership.MigrateZero:
				gamma = 0
			case membership.MigrateRescale:
				gamma *= frac
			}
			n.rec.migrated(n.id(), k*n.ts.tau(n.lvl), m.policy.String(), gamma)
		}
	}
	if n.lvl == 0 {
		sink.M().CloudSyncs.Inc()
		sink.M().Round.Set(float64(k * n.ts.tau(0)))
		if m := n.ts.memb; m != nil {
			kl := n.ts.leafRound(0, k)
			sink.M().MembershipEpoch.Set(float64(m.sched.EpochIndex(kl)))
			sink.M().LiveWorkers.Set(float64(m.sched.LiveCount(kl)))
		}
	} else {
		sink.M().EdgeAggregations.Inc()
	}
	if leafP {
		sink.M().GammaEdge.Set(gamma)
	}
	if sink.Tracing() {
		fields := []telemetry.Field{
			telemetry.Int("t", k*n.ts.tau(n.lvl)),
			telemetry.Int("tier", n.lvl),
			telemetry.String("level", n.ts.topo.Levels[n.lvl].Name),
			telemetry.String("node", n.id()),
			telemetry.Int("participants", participants),
			telemetry.Float("gamma", gamma),
		}
		if adaptive {
			fields = append(fields, telemetry.Float("cos", cosVal))
		}
		sink.Emit("tier_aggregate", fields...)
	}

	if n.agg == nil {
		if err := tensor.WeightedSum(n.yMinus, weights, ys); err != nil {
			return err
		}
		if err := tensor.WeightedSum(n.yPlusNext, weights, xs); err != nil {
			return err
		}
	} else {
		// The rule reduces the y and x streams together so a reporter
		// rejected in one is rejected in both. Deviation references: at
		// momentum levels, the state last redistributed (lastY) and the
		// standing model (xPlus, overwritten only below); at non-momentum
		// levels the previous aggregate is copied out first, since yMinus
		// is both reference and destination.
		refY, refX := n.lastY, n.xPlus
		if !n.ts.momentum[n.lvl] {
			if err := n.prevY.CopyFrom(n.yMinus); err != nil {
				return err
			}
			if err := n.prevX.CopyFrom(n.xPlus); err != nil {
				return err
			}
			refY, refX = n.prevY, n.prevX
		}
		st, err := n.agg.Aggregate(
			[]tensor.Vector{n.yMinus, n.yPlusNext},
			[]tensor.Vector{refY, refX},
			weights,
			[][]tensor.Vector{ys, xs})
		if err != nil {
			return fmt.Errorf("cluster: %s robust %s aggregation at round %d: %w",
				n.id(), n.agg.Name(), k, err)
		}
		if len(st.Rejected) > 0 || len(st.Clipped) > 0 {
			ids := make([]string, len(ys))
			for j := range ids {
				c := j
				if leafP {
					c = idx[j]
				}
				ids[j] = n.ts.ids[n.lvl+1][children[c]]
			}
			n.rec.robustTier(n.id(), n.ts.topo.Levels[n.lvl].Name, n.lvl,
				k*n.ts.tau(n.lvl), st, ids)
		}
	}
	if err := n.xPlus.CopyFrom(n.yPlusNext); err != nil {
		return err
	}
	if n.ts.momentum[n.lvl] {
		if err := n.xPlus.AXPY(gamma, n.yPlusNext); err != nil {
			return err
		}
		if err := n.xPlus.AXPY(-gamma, n.yPlus); err != nil {
			return err
		}
	}
	if err := n.yPlus.CopyFrom(n.yPlusNext); err != nil {
		return err
	}
	// The weighted loss over the full child weights: stragglers contribute
	// their most recently reported value.
	n.weightedLoss = 0
	for c, child := range children {
		n.weightedLoss += full[c] * n.losses[child]
	}
	if sink != nil {
		if n.lvl == 0 {
			sink.M().CloudSyncSeconds.Observe(time.Since(aggStart).Seconds())
		} else {
			sink.M().EdgeAggSeconds.Observe(time.Since(aggStart).Seconds())
		}
	}
	return nil
}

// parentSync reports [y_ℓ−, x_ℓ+] and the level's weighted loss to the
// parent at a boundary round, then adopts the parent's update. In quorum
// mode a lost update is ridden out, or — if a later round's update arrives —
// adopted from there; the returned round lets the caller fast-forward.
func (n *tierNode) parentSync(k int) (int, error) {
	want := k * n.ts.tau(n.lvl)
	report := transport.Message{
		Kind:    KindTierReport,
		Round:   want,
		Vectors: [][]float64{n.yMinus, n.xPlus},
		Scalars: map[string]float64{ScalarLoss: n.weightedLoss},
	}
	parent := n.ts.ids[n.lvl-1][n.ts.parent[n.lvl][n.idx]]
	if err := n.ep.Send(parent, report); err != nil {
		return 0, err
	}
	deadline := n.opts.now().Add(n.opts.RecvTimeout)
	for {
		wait := deadline.Sub(n.opts.now())
		if wait <= 0 {
			if n.opts.tolerant() {
				// Ride it out: keep local state for this sync; the parent
				// substitutes this node's last report and the next sync
				// reconverges both sides.
				n.rec.timeout(n.id())
				return 0, nil
			}
			return 0, fmt.Errorf("parent update: %w", transport.ErrTimeout)
		}
		msg, err := recvInterruptible(n.ep, wait, n.opts)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return 0, err
		}
		switch msg.Kind {
		case KindTierReport:
			// Straggler reports from the round this node already closed can
			// still trickle in while it waits on its parent.
			n.rec.stale(n.id())
			continue
		case KindReassign:
			// A REASSIGN from an earlier root sync can arrive out of order on
			// a delaying transport; it is validation-only.
			if err := n.checkReassign(msg); err != nil {
				return 0, err
			}
			continue
		}
		if err := expectKind(msg, KindTierUpdate); err != nil {
			return 0, err
		}
		if msg.Round < want {
			n.rec.stale(n.id())
			continue
		}
		if len(msg.Vectors) != 2 {
			return 0, fmt.Errorf("cluster: parent update carries %d vectors, want 2", len(msg.Vectors))
		}
		if err := n.yMinus.CopyFrom(msg.Vectors[0]); err != nil {
			return 0, err
		}
		return msg.Round, n.xPlus.CopyFrom(msg.Vectors[1])
	}
}

// treeLeaf is one training leaf: it runs the NAG iterations of Algorithm 1
// lines 5–6 on its own shard — operation for operation the simulation's
// worker arithmetic — and reports its interval state to its parent every
// leaf-parent period.
//
// In quorum mode a leaf whose redistributed update never arrives keeps
// training on its local state and rejoins at a later aggregation — the
// distributed counterpart of a non-participant in the simulation's
// partial-participation path.
type treeLeaf struct {
	cfg     *fl.Config
	ts      *treeSpec
	j       int // leaf index within the training level
	shard   *dataset.Dataset
	ep      transport.Endpoint
	opts    Options
	rec     *faultRecorder
	reg     *checkpoint.Registry
	sampler *rng.RNG
	// att mutates this leaf's boundary reports when the run's attack plan
	// marks it Byzantine; nil for honest leaves.
	att *robust.Attacker

	x, y          tensor.Vector
	gradSum, ySum tensor.Vector
	grad          tensor.Vector //flvet:allow ckptstate -- per-step scratch, overwritten by LossGrad before use
	// yPrev is per-iteration scratch for the NAG extrapolation,
	// preallocated so step never clones a model-sized vector.
	yPrev    tensor.Vector //flvet:allow ckptstate -- per-step scratch, refilled from y before use
	lastLoss float64
	// syncedThrough is the round of the last adopted update. When an update
	// arrives for a round ahead of this leaf's own iteration count (the
	// parent fast-forwarded past rounds a quorum completed without it), the
	// leaf trains straight through to that round before reporting again.
	syncedThrough int
}

func newTreeLeaf(cfg *fl.Config, ts *treeSpec, j int, x0 tensor.Vector, ep transport.Endpoint, opts Options) *treeLeaf {
	return &treeLeaf{
		cfg:     cfg,
		ts:      ts,
		j:       j,
		shard:   ts.shards[j],
		ep:      ep,
		opts:    opts,
		sampler: ts.leafSampler(j),
		att:     opts.attackerFor(ts.ids[ts.depth()-1][j], 4, len(x0)),
		x:       x0.Clone(),
		y:       x0.Clone(),
		gradSum: tensor.NewVector(len(x0)),
		ySum:    tensor.NewVector(len(x0)),
		grad:    tensor.NewVector(len(x0)),
		yPrev:   tensor.NewVector(len(x0)),
	}
}

func (w *treeLeaf) id() string { return w.ts.ids[w.ts.depth()-1][w.j] }

// initCheckpoint binds the leaf's complete mid-run state — model, momentum,
// interval accumulators, batch-sampler stream, resync cursor, and attack
// replay stash — to its snapshot registry and applies the Resume option. It
// returns the iteration the run should continue after (0 for a fresh start).
func (w *treeLeaf) initCheckpoint() (int, error) {
	reg, err := nodeRegistry(w.cfg, w.ts.topo, w.opts, w.id())
	if err != nil || reg == nil {
		return 0, err
	}
	reg.Vector("x", w.x)
	reg.Vector("y", w.y)
	reg.Vector("gradSum", w.gradSum)
	reg.Vector("ySum", w.ySum)
	reg.RNG("sampler", w.sampler)
	reg.Float("lastLoss", &w.lastLoss)
	reg.Int("syncedThrough", &w.syncedThrough)
	if w.att != nil {
		// The replay stash is the attacker's only mutable state; with it in
		// the snapshot a resumed Byzantine leaf re-sends exactly the bytes
		// the uninterrupted run would have (the noise/flip/scale draws are
		// already pure functions of seed, node, and round).
		for ci, v := range w.att.PrevVectors() {
			reg.Vector(fmt.Sprintf("attackPrev%d", ci), v)
		}
		reg.Int("attackPrevRound", w.att.PrevRoundPtr())
	}
	w.reg = reg
	return restoreOrClear(reg, w.opts.Resume, w.opts.Telemetry, w.id())
}

func (w *treeLeaf) run() error {
	start, err := w.initCheckpoint()
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", w.id(), err)
	}
	lp := w.ts.leafParent()
	bTau := w.ts.tau(lp)
	// With dynamic membership the leaf's lifetime is its scheduled span: a
	// late joiner idles until its natal parent ADMITs it with fresh state,
	// and a planned leaver trains only through its final round.
	T, memb := w.cfg.T, w.ts.memb
	if memb != nil {
		join, last, ok := memb.sched.Span(w.ts.ref(w.j))
		if !ok {
			return nil
		}
		T = last * bTau
		if start == 0 && join > 1 {
			if start, err = w.awaitAdmit(join); err != nil {
				return err
			}
			// Persist the adopted state so a crash between admission and the
			// first boundary resumes from the join, not from scratch.
			if err := saveSnapshot(w.reg, start, w.opts.Telemetry, w.id()); err != nil {
				return fmt.Errorf("cluster: %s: %w", w.id(), err)
			}
		}
	}
	parent := w.ts.ids[lp][w.ts.parent[lp+1][w.j]]
	for t := start + 1; t <= T; t++ {
		if interrupted(w.opts.Interrupt) {
			// Graceful shutdown: persist the state as of the last completed
			// iteration. A resumed run replays the rest of the interval from
			// here — deterministically, since the sampler position is part of
			// the snapshot — and re-sends the interval report.
			if err := saveSnapshot(w.reg, t-1, w.opts.Telemetry, w.id()); err != nil {
				return fmt.Errorf("cluster: %s: %w", w.id(), err)
			}
			return fmt.Errorf("cluster: %s: %w", w.id(), ErrInterrupted)
		}
		if err := w.step(); err != nil {
			return fmt.Errorf("cluster: %s t=%d: %w", w.id(), t, err)
		}
		if t%bTau != 0 {
			continue
		}
		if t <= w.syncedThrough {
			// The last adopted update already covers this round; the parent
			// would reject a report for it as stale.
			if err := saveSnapshot(w.reg, t, w.opts.Telemetry, w.id()); err != nil {
				return fmt.Errorf("cluster: %s: %w", w.id(), err)
			}
			continue
		}
		if memb != nil {
			// Under dynamic membership the parent is whichever leaf-parent
			// the schedule assigns for this round.
			p, ok := memb.sched.EdgeOf(t/bTau, w.ts.ref(w.j))
			if !ok {
				return fmt.Errorf("cluster: %s has no parent at round %d: membership schedule divergence",
					w.id(), t/bTau)
			}
			parent = w.ts.ids[lp][p]
		}
		vecs := [][]float64{w.y, w.x, w.gradSum, w.ySum}
		if w.att != nil {
			// Byzantine boundary: the attack mutates only what goes on the
			// wire — local training state stays honest (DESIGN.md §14).
			mut, kind, hit, err := w.att.Apply(t/bTau, []tensor.Vector{w.y, w.x, w.gradSum, w.ySum})
			if err != nil {
				return fmt.Errorf("cluster: %s attack: %w", w.id(), err)
			}
			if hit {
				w.rec.injected(w.id(), t, kind)
				vecs = [][]float64{mut[0], mut[1], mut[2], mut[3]}
			}
		}
		report := transport.Message{
			Kind:    KindTierReport,
			Round:   t,
			Vectors: vecs,
			Scalars: map[string]float64{ScalarLoss: w.lastLoss},
		}
		if err := w.ep.Send(parent, report); err != nil {
			return fmt.Errorf("cluster: %s report: %w", w.id(), err)
		}
		if memb != nil && t == T && T < w.cfg.T {
			// Planned permanent leave: the final report is aggregated, then
			// the parent acknowledges with RETIRE and this leaf exits.
			if err := w.awaitRetire(); err != nil {
				return err
			}
		} else if err := w.awaitUpdate(t); err != nil {
			return err
		}
		// Snapshot after the boundary settles; an interrupt inside
		// awaitUpdate deliberately skips this save so the resumed leaf
		// replays the interval and re-sends the report, bit-identical to an
		// uninterrupted run.
		if err := saveSnapshot(w.reg, t, w.opts.Telemetry, w.id()); err != nil {
			return fmt.Errorf("cluster: %s: %w", w.id(), err)
		}
	}
	return nil
}

// awaitUpdate blocks for the parent's redistributed [y, x] after the report
// at iteration t. Updates for an earlier round are stale leftovers and are
// skipped; an update for a later round means this leaf was left behind by a
// quorum and resynchronizes to the newer state. In quorum mode a timeout is
// ridden out: the leaf keeps its local state and continues training. Under
// dynamic membership a leaf reassigned to a new parent receives its boundary
// update from that parent as an ADMIT with the same payload.
func (w *treeLeaf) awaitUpdate(t int) error {
	deadline := w.opts.now().Add(w.opts.RecvTimeout)
	for {
		wait := deadline.Sub(w.opts.now())
		if wait <= 0 {
			if w.opts.tolerant() {
				w.rec.timeout(w.id())
				return nil
			}
			return fmt.Errorf("cluster: %s await update: %w", w.id(), transport.ErrTimeout)
		}
		msg, err := recvInterruptible(w.ep, wait, w.opts)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return fmt.Errorf("cluster: %s await update: %w", w.id(), err)
		}
		if w.ts.memb == nil || msg.Kind != KindAdmit {
			if err := expectKind(msg, KindTierUpdate); err != nil {
				return err
			}
		}
		if msg.Round < t {
			w.rec.stale(w.id())
			continue
		}
		if err := w.adopt(msg); err != nil {
			return err
		}
		if msg.Round > t {
			w.rec.fastforward(w.id(), t, msg.Round)
		}
		return nil
	}
}

// adopt takes over the [y, x] state of an update or admission and restarts
// the interval accumulators.
func (w *treeLeaf) adopt(msg transport.Message) error {
	if len(msg.Vectors) != 2 {
		return fmt.Errorf("cluster: %s update carries %d vectors, want 2", w.id(), len(msg.Vectors))
	}
	if err := w.y.CopyFrom(msg.Vectors[0]); err != nil {
		return err
	}
	if err := w.x.CopyFrom(msg.Vectors[1]); err != nil {
		return err
	}
	w.gradSum.Zero()
	w.ySum.Zero()
	w.syncedThrough = msg.Round
	return nil
}

// awaitAdmit blocks a late joiner until its natal parent admits it into the
// cohort of its join round, carrying the parent's current [y, x] as starting
// state. It returns the adopted round (the leaf trains from there). A parent
// that fast-forwarded past the join round admits with a later round; a plain
// update covering the join also counts (the parent considered this leaf a
// member already after a resync).
func (w *treeLeaf) awaitAdmit(join int) (int, error) {
	want := (join - 1) * w.ts.tau(w.ts.leafParent())
	deadline := w.opts.now().Add(w.opts.RecvTimeout)
	for {
		wait := deadline.Sub(w.opts.now())
		if wait <= 0 {
			return 0, fmt.Errorf("cluster: %s await admit for round %d: %w", w.id(), join, transport.ErrTimeout)
		}
		msg, err := recvInterruptible(w.ep, wait, w.opts)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return 0, fmt.Errorf("cluster: %s await admit: %w", w.id(), err)
		}
		if msg.Kind != KindAdmit && msg.Kind != KindTierUpdate {
			return 0, fmt.Errorf("cluster: %s got %q from %q while awaiting admit", w.id(), msg.Kind, msg.From)
		}
		if msg.Round < want {
			w.rec.stale(w.id())
			continue
		}
		return msg.Round, w.adopt(msg)
	}
}

// awaitRetire blocks a planned leaver until its parent acknowledges that its
// final report was aggregated. Leftover redistribution traffic is skipped;
// in quorum mode a missing RETIRE is ridden out (the leaf has nothing left
// to do either way).
func (w *treeLeaf) awaitRetire() error {
	deadline := w.opts.now().Add(w.opts.RecvTimeout)
	for {
		wait := deadline.Sub(w.opts.now())
		if wait <= 0 {
			if w.opts.tolerant() {
				w.rec.timeout(w.id())
				return nil
			}
			return fmt.Errorf("cluster: %s await retire: %w", w.id(), transport.ErrTimeout)
		}
		msg, err := recvInterruptible(w.ep, wait, w.opts)
		if err != nil {
			if errors.Is(err, transport.ErrTimeout) {
				continue
			}
			return fmt.Errorf("cluster: %s await retire: %w", w.id(), err)
		}
		switch msg.Kind {
		case KindRetire:
			return nil
		case KindTierUpdate, KindAdmit:
			w.rec.stale(w.id())
		default:
			return fmt.Errorf("cluster: %s got %q from %q while awaiting retire", w.id(), msg.Kind, msg.From)
		}
	}
}

// step performs one NAG iteration (Algorithm 1 lines 5–6).
func (w *treeLeaf) step() error {
	batch, err := w.shard.Batch(w.sampler, w.cfg.BatchSize)
	if err != nil {
		return err
	}
	//flvet:allow allocfree -- workspace pool miss only; steady-state gradient calls reuse pooled buffers
	loss, err := w.cfg.Model.LossGrad(w.x, batch, w.grad)
	if err != nil {
		return err
	}
	w.lastLoss = loss
	if err := w.gradSum.Add(w.grad); err != nil {
		return err
	}
	if err := w.yPrev.CopyFrom(w.y); err != nil {
		return err
	}
	if err := w.y.CopyFrom(w.x); err != nil {
		return err
	}
	if err := w.y.AXPY(-w.cfg.Eta, w.grad); err != nil {
		return err
	}
	if err := w.ySum.Add(w.y); err != nil {
		return err
	}
	if err := w.x.CopyFrom(w.y); err != nil {
		return err
	}
	if err := w.x.AXPY(w.cfg.Gamma, w.y); err != nil {
		return err
	}
	if err := w.x.AXPY(-w.cfg.Gamma, w.yPrev); err != nil {
		return err
	}
	w.opts.Telemetry.M().WorkerSteps.Inc()
	return nil
}
