package main

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hieradmo/internal/cluster"
	"hieradmo/internal/dataset"
	"hieradmo/internal/model"
	"hieradmo/internal/telemetry"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// maxTiers bounds the tier labels the probe keeps per-tier figures for; the
// deepest workload is a 4-level tree.
const maxTiers = 4

// span is one traced interval, in nanoseconds since the run entered the
// engine's Run. Spans of one round share its round number: the protocol
// round carried by the message for transport spans, the leaf-parent round
// for round spans, and, for model spans, the round the call's global index
// falls in (exact on the lockstep simulation, approximate across the
// cluster's independently scheduled leaves).
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Node  string `json:"node,omitempty"`
	Tier  int    `json:"tier"`
	Kind  string `json:"kind,omitempty"`
	Round int    `json:"round"`
	Bytes int64  `json:"bytes,omitempty"`
}

// roundMark is the time an aggregating node handed out its round-r update.
type roundMark struct {
	round int
	at    int64
}

// probe collects what the benchmark's wrappers observe during one training
// run. Untraced runs keep only counters and one timestamp per round; traced
// runs also time every call and record a span for it.
type probe struct {
	start time.Time
	trace bool

	// leaves is the number of concurrent LossGrad callers per iteration and
	// roundCalls the LossGrad calls that make up one leaf-parent round; they
	// map a call's global index onto its iteration and round. Only the
	// leaves, on tier leafTier, train; the root tier evaluates.
	leaves, roundCalls int64
	leafTier           int
	// evalCalls, when positive, marks the end of the simulation's
	// evaluation every evalCalls LossGrad calls (EvalEvery × leaves): the
	// next iteration's first step starts right after the evaluation.
	evalCalls int64

	lgCalls   atomic.Int64
	lgBusy    atomic.Int64
	firstStep atomic.Int64 // ns since start + 1; 0 until the first LossGrad
	predCalls atomic.Int64
	predBusy  atomic.Int64

	sends     atomic.Int64
	sendBytes atomic.Int64
	sendBusy  atomic.Int64
	timeouts  atomic.Int64
	recvWait  [maxTiers]atomic.Int64

	mu        sync.Mutex
	evalMarks map[int]int64 // iteration → ns when its evaluation had ended
	rounds    [maxTiers][]roundMark
	spans     []span
}

func newProbe(trace bool, leaves, leafTier, tau, evalEvery int) *probe {
	p := &probe{
		trace:      trace,
		leafTier:   leafTier,
		leaves:     int64(leaves),
		roundCalls: int64(leaves * tau),
		evalMarks:  map[int]int64{},
	}
	if evalEvery > 0 {
		p.evalCalls = int64(evalEvery * leaves)
	}
	return p
}

// begin starts the run clock; call it right before entering the engine.
func (p *probe) begin() { p.start = time.Now() }

func (p *probe) now() int64 { return int64(time.Since(p.start)) }

func (p *probe) addSpan(s span) {
	p.mu.Lock()
	p.spans = append(p.spans, s)
	p.mu.Unlock()
}

// markRound records the first update an aggregating node of tier hands
// out for a round.
func (p *probe) markRound(tier, round int, at int64) {
	p.mu.Lock()
	p.rounds[tier] = append(p.rounds[tier], roundMark{round: round, at: at})
	p.mu.Unlock()
}

// firstStepNs is the time of the first LossGrad call, or -1 if none ran.
func (p *probe) firstStepNs() int64 { return p.firstStep.Load() - 1 }

// roundIntervals returns the gaps, in milliseconds, between successive
// rounds of tier, in round order.
func (p *probe) roundIntervals(tier int) []float64 {
	p.mu.Lock()
	marks := append([]roundMark(nil), p.rounds[tier]...)
	p.mu.Unlock()
	sort.Slice(marks, func(i, j int) bool { return marks[i].round < marks[j].round })
	var out []float64
	for i := 1; i < len(marks); i++ {
		out = append(out, float64(marks[i].at-marks[i-1].at)/1e6)
	}
	return out
}

// timedModel decorates the workload's model. It changes no result: every
// call is forwarded unchanged and only observed.
type timedModel struct {
	model.Model
	p *probe
}

func (m *timedModel) LossGrad(params tensor.Vector, batch []dataset.Sample, grad tensor.Vector) (float64, error) {
	p := m.p
	c := p.lgCalls.Add(1)
	evalEnd := p.evalCalls > 0 && c > 1 && (c-1)%p.evalCalls == 0
	var t0 int64
	if c == 1 || evalEnd || p.trace {
		t0 = p.now()
	}
	if c == 1 {
		p.firstStep.Store(t0 + 1)
	}
	if evalEnd {
		p.mu.Lock()
		p.evalMarks[int((c-1)/p.leaves)] = t0
		p.mu.Unlock()
	}
	loss, err := m.Model.LossGrad(params, batch, grad)
	if p.trace {
		t1 := p.now()
		p.lgBusy.Add(t1 - t0)
		p.addSpan(span{Name: "model.lossgrad", Start: t0, End: t1, Tier: p.leafTier, Round: int((c-1)/p.roundCalls) + 1})
	}
	return loss, err
}

func (m *timedModel) Predict(params tensor.Vector, x tensor.Vector) (int, error) {
	p := m.p
	p.predCalls.Add(1)
	if !p.trace {
		return m.Model.Predict(params, x)
	}
	t0 := p.now()
	out, err := m.Model.Predict(params, x)
	t1 := p.now()
	p.predBusy.Add(t1 - t0)
	p.addSpan(span{Name: "model.predict", Start: t0, End: t1, Round: int(p.lgCalls.Load()/p.roundCalls) + 1})
	return out, err
}

// timedNetwork wraps the cluster's transport. Like
// transport.CountingNetwork it forwards transport.StatsReporter and
// transport.TelemetrySetter to the inner network, so the cluster sees the
// same capabilities it would see unwrapped.
type timedNetwork struct {
	inner cluster.Network
	p     *probe
	// tierOf maps a node ID to its tier (0 is the root); roundNode reports
	// whether the node's update sends mark its tier's round boundaries.
	tierOf    func(id string) int
	roundNode func(id string) bool
}

var (
	_ cluster.Network           = (*timedNetwork)(nil)
	_ transport.StatsReporter   = (*timedNetwork)(nil)
	_ transport.TelemetrySetter = (*timedNetwork)(nil)
)

func (n *timedNetwork) Endpoint(id string) (transport.Endpoint, error) {
	ep, err := n.inner.Endpoint(id)
	if err != nil {
		return nil, err
	}
	return &timedEndpoint{inner: ep, p: n.p, tier: n.tierOf(id), marks: n.roundNode(id), lastRound: -1}, nil
}

func (n *timedNetwork) Close() error { return n.inner.Close() }

func (n *timedNetwork) FaultStats() transport.FaultStats {
	if sr, ok := n.inner.(transport.StatsReporter); ok {
		return sr.FaultStats()
	}
	return transport.FaultStats{}
}

func (n *timedNetwork) SetTelemetry(sink *telemetry.Sink) {
	if ts, ok := n.inner.(transport.TelemetrySetter); ok {
		ts.SetTelemetry(sink)
	}
}

type timedEndpoint struct {
	inner     transport.Endpoint
	p         *probe
	tier      int
	marks     bool
	lastRound int // only touched by the node's own goroutine
}

func (e *timedEndpoint) ID() string { return e.inner.ID() }

// payloadBytes is the vector and scalar payload handed to Send.
func payloadBytes(m transport.Message) int64 {
	n := int64(8 * len(m.Scalars))
	for _, v := range m.Vectors {
		n += 8 * int64(len(v))
	}
	return n
}

func isUpdate(kind string) bool {
	return kind == cluster.KindEdgeUpdate || kind == cluster.KindCloudUpdate || kind == cluster.KindTierUpdate
}

func (e *timedEndpoint) Send(to string, msg transport.Message) error {
	p := e.p
	mark := e.marks && isUpdate(msg.Kind) && msg.Round != e.lastRound
	var t0 int64
	if mark || p.trace {
		t0 = p.now()
	}
	if mark {
		e.lastRound = msg.Round
		p.markRound(e.tier, msg.Round, t0)
	}
	err := e.inner.Send(to, msg)
	if err != nil {
		return err
	}
	b := payloadBytes(msg)
	p.sends.Add(1)
	p.sendBytes.Add(b)
	if p.trace {
		t1 := p.now()
		p.sendBusy.Add(t1 - t0)
		p.addSpan(span{Name: "transport.send", Start: t0, End: t1, Node: e.ID(), Tier: e.tier,
			Kind: msg.Kind, Round: msg.Round, Bytes: b})
	}
	return nil
}

func (e *timedEndpoint) Recv() (transport.Message, error) { return e.inner.Recv() }

func (e *timedEndpoint) RecvTimeout(d time.Duration) (transport.Message, error) {
	p := e.p
	if !p.trace {
		msg, err := e.inner.RecvTimeout(d)
		if errors.Is(err, transport.ErrTimeout) {
			p.timeouts.Add(1)
		}
		return msg, err
	}
	t0 := p.now()
	msg, err := e.inner.RecvTimeout(d)
	t1 := p.now()
	if errors.Is(err, transport.ErrTimeout) {
		p.timeouts.Add(1)
	}
	p.recvWait[e.tier].Add(t1 - t0)
	p.addSpan(span{Name: "transport.recv", Start: t0, End: t1, Node: e.ID(), Tier: e.tier,
		Kind: msg.Kind, Round: msg.Round})
	return msg, err
}

func (e *timedEndpoint) Close() error { return e.inner.Close() }
