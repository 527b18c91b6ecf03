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
// One receive loop (collect) serves two collection semantics, chosen by what
// the children are. The leaf-parent level collects training-leaf reports and renormalizes data
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

	// scratch is per-round working memory, rebuilt every round before use.
	scratch roundScratch
}

// roundScratch is a tier node's per-round working memory, grown to the
// largest cohort and then reused, so steady-state rounds allocate nothing.
type roundScratch struct {
	// reports are collect's per-child slots and present the filled ones.
	reports []transport.Message
	present []int
	// weights, the vector views and signals are update's per-report inputs.
	weights                 []float64
	ys, xs, gradSums, ySums []tensor.Vector
	signals                 []tensor.Vector
	// aggDst, aggRef and aggIn are the robust rule's argument lists.
	aggDst, aggRef [2]tensor.Vector
	aggIn          [2][]tensor.Vector
	// wire and scalars are the outgoing payload lists, reused because a
	// transport copies a payload before Send returns.
	wire    [2][]float64
	scalars map[string]float64
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
		scratch:   roundScratch{scalars: make(map[string]float64, 1)},
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
	n.scratch.wire = [2][]float64{n.yMinus, n.xPlus}
	update := transport.Message{
		Kind:    KindTierUpdate,
		Round:   k * n.ts.tau(n.lvl),
		Vectors: n.scratch.wire[:],
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
			releaseAll(reports)
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

// collect gathers the round-k reports of this node's children, one receive
// loop for every level. Strict mode requires every child within RecvTimeout;
// quorum mode grants stragglers a grace from quorum attainment (anchoring it
// at quorum rather than at collection start keeps it from being consumed by
// upstream tiers' own waits), then proceeds with the survivors. The grace is
// StragglerDeadline at the leaf-parent; above it, one StragglerDeadline per
// intervening child round plus this node's own. Duplicates and stale rounds
// are rejected and counted; future-round reports (children that rode out a
// lost update) are stashed in quorum mode.
//
// What happens to an absent child is the level's semantics. The leaf-parent
// aggregates over the survivors: its cohort (under dynamic membership the
// round's live cohort from the schedule) fixes the quorum denominator, and
// the returned slots and sorted present indices let update renormalize the
// data weights. Every other level's children are aggregators with durable
// state: fresh reports are adopted into the standing lastYRep/lastXRep, and a
// missing child's last report is substituted for at most one consecutive
// round before the run fails fast.
//
// A positive first result is the round of a parent update adopted
// mid-collect (the parent moved on without this node); the caller
// fast-forwards to it.
//
// Ownership: the leaf-parent's returned reports still own their vectors,
// and the caller releases them once update has consumed them. Above it each
// report is released as soon as it is copied into lastYRep/lastXRep, so its
// slot only marks that the child reported. The returned slices are node
// scratch, valid until the next collect.
func (n *tierNode) collect(k int) (int, []transport.Message, []int, error) {
	children := n.ts.layoutAt(n.lvl, k).children[n.lvl][n.idx]
	numChildren := len(children)
	want := k * n.ts.tau(n.lvl)
	leafP := n.lvl == n.ts.leafParent()
	quorum := numChildren
	if n.opts.tolerant() {
		quorum = quorumCount(n.opts.MinQuorum, numChildren)
	}
	grace := n.opts.StragglerDeadline
	if !leafP {
		grace *= time.Duration(n.ts.tau(n.lvl)/n.ts.tau(n.lvl+1) + 1)
	}
	sc := &n.scratch
	if cap(sc.reports) < numChildren {
		sc.reports = make([]transport.Message, numChildren)
	}
	reports := sc.reports[:numChildren]
	clear(reports)
	got := 0
	// report files one child report by round: stale (and released), stashed
	// for a later collect (which then owns it), or admitted into its slot.
	report := func(msg transport.Message) error {
		switch {
		case msg.Round < want:
			n.rec.stale(n.id())
			msg.Release()
		case msg.Round > want:
			if !n.opts.tolerant() {
				return fmt.Errorf("cluster: report from %q for future round %d (want %d)",
					msg.From, msg.Round, want)
			}
			n.pending = append(n.pending, msg)
		default:
			ok, err := n.admit(msg, children, reports)
			if ok {
				got++
			}
			return err
		}
		return nil
	}
	stash := n.pending
	n.pending = nil
	for _, msg := range stash {
		if err := report(msg); err != nil {
			return 0, nil, nil, err
		}
	}
	deadline := n.opts.now().Add(n.opts.RecvTimeout)
	if n.opts.tolerant() {
		// A silent child may be riding out a lost update for up to a full
		// RecvTimeout of its own; wait one straggler grace beyond that
		// horizon so its recovery report is not missed by a hair.
		deadline = deadline.Add(n.opts.StragglerDeadline)
	}
	var stragglerBy time.Time
	for got < numChildren {
		var wait time.Duration
		if got >= quorum {
			if stragglerBy.IsZero() {
				stragglerBy = n.opts.now().Add(grace)
			}
			wait = stragglerBy.Sub(n.opts.now())
			if wait <= 0 {
				break // quorum reached, stragglers forfeited this round
			}
		} else {
			wait = deadline.Sub(n.opts.now())
			if wait <= 0 {
				return 0, nil, nil, fmt.Errorf("%d/%d child reports (quorum %d): %w",
					got, numChildren, quorum, transport.ErrTimeout)
			}
		}
		msg, err := recvInterruptible(n.ep, wait, n.opts)
		if errors.Is(err, transport.ErrTimeout) {
			continue
		}
		if err != nil {
			return 0, nil, nil, err
		}
		switch msg.Kind {
		case KindReassign:
			err = n.checkReassign(msg)
			msg.Release()
		case KindTierUpdate:
			var adopted int
			adopted, err = n.adoptParentUpdate(msg, want)
			msg.Release()
			if adopted > 0 {
				// The adopted state supersedes this round: its reports go unused.
				releaseAll(reports)
				return adopted, nil, nil, err
			}
		default:
			if err = expectKind(msg, KindTierReport); err == nil {
				err = report(msg)
			}
		}
		if err != nil {
			return 0, nil, nil, err
		}
	}
	present := sc.present[:0]
	for c, msg := range reports {
		switch {
		case msg.Vectors != nil:
			present = append(present, c)
			if !leafP {
				n.missStreak[c] = 0
				err := copyState(msg, n.lastYRep[c], n.lastXRep[c])
				msg.Release()
				if err != nil {
					return 0, nil, nil, err
				}
			}
		case !leafP:
			if n.missStreak[c]++; n.missStreak[c] > 1 {
				return 0, nil, nil, fmt.Errorf("cluster: child %s missed %d consecutive rounds of %s: quorum unreachable: %w",
					n.ts.ids[n.lvl+1][children[c]], n.missStreak[c], n.id(), transport.ErrTimeout)
			}
		}
	}
	sc.present = present
	n.rec.missingTier(n.ts.topo.Levels[n.lvl].Name, n.lvl, want, numChildren-got, leafP)
	return 0, reports, present, nil
}

// admit validates one current-round child report and slots it by the
// sender's position in children, this node's child list for the round. A
// leaf-parent under dynamic membership counts a report from a leaf outside
// the round's cohort (a just-reassigned leaf's report that crossed the
// boundary) as stale; anywhere else such a report is a protocol error. A
// duplicate is counted and rejected: it must not overwrite its slot while
// inflating the reporter count.
func (n *tierNode) admit(msg transport.Message, children []int, reports []transport.Message) (bool, error) {
	child, err := n.childIndex(msg.From)
	if err != nil {
		return false, err
	}
	c := slices.Index(children, child)
	if c < 0 {
		if n.ts.memb != nil && n.lvl == n.ts.leafParent() {
			n.rec.stale(n.id())
			msg.Release()
			return false, nil
		}
		return false, fmt.Errorf("cluster: %s got a report from %q, another node's child", n.id(), msg.From)
	}
	if nv := n.nvPerReport(); len(msg.Vectors) != nv {
		return false, fmt.Errorf("cluster: report from %q carries %d vectors, want %d",
			msg.From, len(msg.Vectors), nv)
	}
	if reports[c].Vectors != nil {
		n.rec.duplicate(n.id())
		msg.Release()
		return false, nil
	}
	reports[c] = msg
	n.losses[children[c]] = msg.Scalars[ScalarLoss]
	return true, nil
}

// adoptParentUpdate handles a KindTierUpdate arriving while this node
// collects child reports. An update for the current round or later means the
// parent already completed a sync without this node: adopt it (tolerant mode
// only) and return its round. Stale updates are counted and skipped.
func (n *tierNode) adoptParentUpdate(msg transport.Message, want int) (int, error) {
	if n.lvl > 0 && n.opts.tolerant() && msg.Round >= want {
		return msg.Round, copyState(msg, n.yMinus, n.xPlus)
	}
	n.rec.stale(n.id())
	return 0, nil
}

// growVectors extends vs with zero vectors of length dim until it holds n.
func growVectors(vs []tensor.Vector, n, dim int) []tensor.Vector {
	for len(vs) < n {
		vs = append(vs, tensor.NewVector(dim))
	}
	return vs
}

// copyState adopts the [y, x] payload of a parent update or an aggregator
// report into y and x.
func copyState(msg transport.Message, y, x tensor.Vector) error {
	if len(msg.Vectors) != 2 {
		return fmt.Errorf("cluster: %s from %q carries %d vectors, want 2", msg.Kind, msg.From, len(msg.Vectors))
	}
	if err := y.CopyFrom(msg.Vectors[0]); err != nil {
		return err
	}
	return x.CopyFrom(msg.Vectors[1])
}

// await receives on ep until handle accepts a message or RecvTimeout passes,
// noticing a shutdown request within interruptSlice. Past the deadline it
// returns transport.ErrTimeout — unless rideOut is set and the run is in
// quorum mode: then it records the timeout and returns nil, and the caller
// keeps its local state. handle must copy what it needs out of the message:
// await releases every message once handle returns.
func await(ep transport.Endpoint, opts Options, rec *faultRecorder, rideOut bool, handle func(transport.Message) (bool, error)) error {
	deadline := opts.now().Add(opts.RecvTimeout)
	for {
		wait := deadline.Sub(opts.now())
		if wait <= 0 {
			if rideOut && opts.tolerant() {
				rec.timeout(ep.ID())
				return nil
			}
			return transport.ErrTimeout
		}
		msg, err := recvInterruptible(ep, wait, opts)
		if errors.Is(err, transport.ErrTimeout) {
			continue
		}
		if err != nil {
			return err
		}
		done, err := handle(msg)
		msg.Release()
		if done || err != nil {
			return err
		}
	}
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
	sc := &n.scratch
	var (
		weights         []float64
		ys, xs          []tensor.Vector
		gradSums, ySums []tensor.Vector
		participants    int
	)
	if leafP {
		sc.weights, sc.ys, sc.xs = sc.weights[:0], sc.ys[:0], sc.xs[:0]
		sc.gradSums, sc.ySums = sc.gradSums[:0], sc.ySums[:0]
		for _, i := range idx {
			v := reports[i].Vectors
			sc.weights = append(sc.weights, full[i])
			sc.ys, sc.xs = append(sc.ys, v[0]), append(sc.xs, v[1])
			sc.gradSums, sc.ySums = append(sc.gradSums, v[2]), append(sc.ySums, v[3])
		}
		weights, ys, xs, gradSums, ySums = sc.weights, sc.ys, sc.xs, sc.gradSums, sc.ySums
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
		if len(sc.signals) < len(ys) {
			sc.signals = growVectors(sc.signals, len(ys), len(n.x0))
		}
		signals := sc.signals[:len(ys)]
		if n.opts.Signal == core.SignalVelocity {
			for j := range ys {
				if err := signals[j].CopyFrom(ys[j]); err != nil {
					return err
				}
				if err := signals[j].Sub(n.lastY); err != nil {
					return err
				}
			}
		} else {
			// Σy centred at the shared initialization, matching the
			// simulation's gauge (see internal/core).
			for j := range ySums {
				if err := signals[j].CopyFrom(ySums[j]); err != nil {
					return err
				}
				if err := signals[j].AXPY(-float64(n.ts.tau(n.lvl)), n.x0); err != nil {
					return err
				}
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
			//flvet:allow allocfree -- cold branch: runs only in the round a cohort changed, to record the migration
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
		sc.aggDst = [2]tensor.Vector{n.yMinus, n.yPlusNext}
		sc.aggRef = [2]tensor.Vector{refY, refX}
		sc.aggIn = [2][]tensor.Vector{ys, xs}
		st, err := n.agg.Aggregate(sc.aggDst[:], sc.aggRef[:], weights, sc.aggIn[:])
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
// mode a lost update is ridden out — the parent substitutes this node's last
// report and the next sync reconverges both sides — or, if a later round's
// update arrives, adopted from there; the returned round lets the caller
// fast-forward.
func (n *tierNode) parentSync(k int) (int, error) {
	want := k * n.ts.tau(n.lvl)
	sc := &n.scratch
	sc.scalars[ScalarLoss] = n.weightedLoss
	sc.wire = [2][]float64{n.yMinus, n.xPlus}
	report := transport.Message{
		Kind:    KindTierReport,
		Round:   want,
		Vectors: sc.wire[:],
		Scalars: sc.scalars,
	}
	parent := n.ts.ids[n.lvl-1][n.ts.parent[n.lvl][n.idx]]
	if err := n.ep.Send(parent, report); err != nil {
		return 0, err
	}
	adopted := 0
	err := await(n.ep, n.opts, n.rec, true, func(msg transport.Message) (bool, error) {
		switch msg.Kind {
		case KindTierReport:
			// Straggler reports from the round this node already closed can
			// still trickle in while it waits on its parent.
			n.rec.stale(n.id())
			return false, nil
		case KindReassign:
			// A REASSIGN from an earlier root sync can arrive out of order on
			// a delaying transport; it is validation-only.
			return false, n.checkReassign(msg)
		}
		if err := expectKind(msg, KindTierUpdate); err != nil {
			return false, err
		}
		if msg.Round < want {
			n.rec.stale(n.id())
			return false, nil
		}
		adopted = msg.Round
		return true, copyState(msg, n.yMinus, n.xPlus)
	})
	if err != nil {
		return 0, fmt.Errorf("parent update: %w", err)
	}
	return adopted, nil
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
	yPrev tensor.Vector //flvet:allow ckptstate -- per-step scratch, refilled from y before use
	// batch is the reused mini-batch buffer, and wire and scalars the
	// report's payload lists (a transport copies them before Send returns).
	batch    []dataset.Sample
	wire     [4][]float64       //flvet:allow ckptstate -- per-report scratch, refilled before every send
	scalars  map[string]float64 //flvet:allow ckptstate -- per-report scratch, refilled before every send
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
		scalars: make(map[string]float64, 1),
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
	// late joiner idles until its natal parent's first update to its cohort
	// gives it starting state, and a planned leaver trains only through its
	// final round.
	T, memb := w.cfg.T, w.ts.memb
	if memb != nil {
		join, last, ok := memb.sched.Span(w.ts.ref(w.j))
		if !ok {
			return nil
		}
		T = last * bTau
		if start == 0 && join > 1 {
			// The parent's round-(join−1) update is the newcomer's starting
			// state; one for a later round means the parent fast-forwarded
			// past the join.
			if start, err = w.awaitState((join-1)*bTau, false); err != nil {
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
		w.wire = [4][]float64{w.y, w.x, w.gradSum, w.ySum}
		if w.att != nil {
			// Byzantine boundary: the attack mutates only what goes on the
			// wire — local training state stays honest (DESIGN.md §14).
			mut, kind, hit, err := w.att.Apply(t/bTau, []tensor.Vector{w.y, w.x, w.gradSum, w.ySum})
			if err != nil {
				return fmt.Errorf("cluster: %s attack: %w", w.id(), err)
			}
			if hit {
				w.rec.injected(w.id(), t, kind)
				w.wire = [4][]float64{mut[0], mut[1], mut[2], mut[3]}
			}
		}
		w.scalars[ScalarLoss] = w.lastLoss
		report := transport.Message{
			Kind:    KindTierReport,
			Round:   t,
			Vectors: w.wire[:],
			Scalars: w.scalars,
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
		} else if r, err := w.awaitState(t, true); err != nil {
			return err
		} else if r > t {
			w.rec.fastforward(w.id(), t, r)
		}
		// Snapshot after the boundary settles; an interrupt inside
		// awaitState deliberately skips this save so the resumed leaf
		// replays the interval and re-sends the report, bit-identical to an
		// uninterrupted run.
		if err := saveSnapshot(w.reg, t, w.opts.Telemetry, w.id()); err != nil {
			return fmt.Errorf("cluster: %s: %w", w.id(), err)
		}
	}
	return nil
}

// awaitState blocks for the parent's [y, x] for round want or later and
// adopts it, returning the adopted round. Updates for an earlier round are
// stale leftovers and are skipped; an update for a later round means a
// quorum left this leaf behind, and it resynchronizes to the newer state.
// With rideOut a quorum-mode timeout returns 0: the leaf keeps its local
// state and continues training. Under dynamic membership a reassigned-in
// leaf gets its boundary update from its new parent the same way.
func (w *treeLeaf) awaitState(want int, rideOut bool) (int, error) {
	adopted := 0
	err := await(w.ep, w.opts, w.rec, rideOut, func(msg transport.Message) (bool, error) {
		if err := expectKind(msg, KindTierUpdate); err != nil {
			return false, err
		}
		if msg.Round < want {
			w.rec.stale(w.id())
			return false, nil
		}
		adopted = msg.Round
		return true, w.adopt(msg)
	})
	if err != nil {
		return 0, fmt.Errorf("cluster: %s await update for round %d: %w", w.id(), want, err)
	}
	return adopted, nil
}

// adopt takes over the [y, x] state of an update and restarts the interval
// accumulators.
func (w *treeLeaf) adopt(msg transport.Message) error {
	if err := copyState(msg, w.y, w.x); err != nil {
		return err
	}
	w.gradSum.Zero()
	w.ySum.Zero()
	w.syncedThrough = msg.Round
	return nil
}

// awaitRetire blocks a planned leaver until its parent acknowledges that its
// final report was aggregated. Leftover redistribution traffic is skipped;
// in quorum mode a missing RETIRE is ridden out (the leaf has nothing left
// to do either way).
func (w *treeLeaf) awaitRetire() error {
	err := await(w.ep, w.opts, w.rec, true, func(msg transport.Message) (bool, error) {
		switch msg.Kind {
		case KindRetire:
			return true, nil
		case KindTierUpdate:
			w.rec.stale(w.id())
			return false, nil
		}
		return false, fmt.Errorf("cluster: %s got %q from %q while awaiting retire", w.id(), msg.Kind, msg.From)
	})
	if err != nil {
		return fmt.Errorf("cluster: %s await retire: %w", w.id(), err)
	}
	return nil
}

// step performs one NAG iteration (Algorithm 1 lines 5–6).
func (w *treeLeaf) step() error {
	batch, err := w.shard.BatchInto(w.sampler, w.cfg.BatchSize, w.batch)
	if err != nil {
		return err
	}
	w.batch = batch
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
