package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"hieradmo/internal/dataset"
	"hieradmo/internal/transport"
)

// spanDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in.
const spanDir = ".bench_build/spans"

// runsUntil makes measured runs until the deadline, and at least minRuns of
// them; it returns the runs that passed their output check.
func (b *bench) runsUntil(deadline time.Time, trace bool, workers int) []runResult {
	var ok []runResult
	for i := 0; i < minRuns || time.Now().Before(deadline); i++ {
		if r, passed := b.measure(trace, workers); passed {
			ok = append(ok, r)
		}
	}
	return ok
}

func medianOf(runs []runResult, f func(runResult) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	return median(xs)
}

func samplesPS(r runResult) float64 { return r.samplesPS }

// startS is the median time from entering cluster.Run to the first step;
// zero for the simulation, whose set-up is BuildConfig alone.
func (b *bench) startS(runs []runResult) float64 {
	if b.w.transport == "" {
		return 0
	}
	return medianOf(runs, func(r runResult) float64 { return r.startS })
}

// untraced measures the end-to-end metrics with only counters and one
// timestamp per round recorded.
func (b *bench) untraced(budget time.Duration) output {
	// Return set-up's garbage to the kernel, so the first run's peak
	// memory does not include it.
	debug.FreeOSMemory()
	runs := b.runsUntil(time.Now().Add(budget), false, pool)
	m := map[string]metric{}
	if len(runs) > 0 {
		m["setup_s"] = metric{median(b.buildS) + b.startS(runs), "s"}
		m["samples_per_s"] = metric{medianOf(runs, samplesPS), "samples/s"}
		m["round_ms_p50"] = metric{medianOf(runs, func(r runResult) float64 { return r.roundMs }), "ms"}
		m["final_acc"] = metric{runs[0].res.FinalAcc, "fraction"}
		m["alloc_mb_per_round"] = metric{medianOf(runs, func(r runResult) float64 { return float64(r.allocBytes) / 1e6 }), "MB"}
		m["peak_rss_mb"] = metric{medianOf(runs, func(r runResult) float64 { return r.peakRSSMB }), "MB"}
	}
	return b.result(m)
}

// traced alternates untraced and traced runs, so tracing's overhead is
// measured on equal terms, and derives the per-layer metrics from each
// traced run plus the replay ladder; only the last traced run's spans are
// kept, to be written out. The simulation also trains at a pool of one for
// the single-worker baseline.
func (b *bench) traced(budget time.Duration) output {
	rep, err := b.replay()
	if err != nil {
		fmt.Fprintf(b.log, "%s: replay failed: %v\n", b.w.name, err)
		b.failed++
		return b.result(map[string]metric{})
	}
	deadline := time.Now().Add(budget)
	var (
		plain, traced, single []runResult
		per                   []map[string]metric
	)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		if r, ok := b.measure(false, pool); ok {
			plain = append(plain, r)
		}
		if r, ok := b.measure(true, pool); ok {
			per = append(per, b.layerMetrics(r, rep))
			if len(traced) > 0 {
				traced[len(traced)-1].probe.spans = nil
			}
			traced = append(traced, r)
		}
	}
	if b.w.transport == "" {
		for i := 0; i < 2; i++ {
			if r, ok := b.measure(false, 1); ok {
				single = append(single, r)
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return b.result(map[string]metric{})
	}
	m := map[string]metric{}
	for k, v := range per[0] {
		xs := make([]float64, len(per))
		for i := range per {
			xs[i] = per[i][k].Value
		}
		m[k] = metric{median(xs), v.Unit}
	}
	m["experiment.build_s"] = metric{median(b.buildS), "s"}
	m["cluster.start_s"] = metric{b.startS(plain), "s"}
	m["trace.overhead_share"] = metric{1 - medianOf(traced, samplesPS)/medianOf(plain, samplesPS), "fraction"}
	speedup := 0.0
	if len(single) > 0 {
		speedup = medianOf(plain, samplesPS) / medianOf(single, samplesPS)
	}
	m["parallel.speedup"] = metric{speedup, "x"}
	m["check.curve_loss_mismatches"] = metric{float64(b.lossMismatches), "count"}
	if err := b.writeSpans(traced[len(traced)-1]); err != nil {
		fmt.Fprintf(b.log, "%s: writing spans: %v\n", b.w.name, err)
	}
	return b.result(m)
}

// replayed holds the replay ladder's per-call figures, in nanoseconds, and
// the call counts the workload makes of each.
type replayed struct {
	forwardNs, lossGradNs float64
	gemmNs, gemmGFLOPS    float64
	wsumNs                float64
	wsumCalls             int
	cosineNs              float64
	cosineCalls           int
	medianNs              float64
	medianCalls           int
	rttMemNs, rttTCPNs    float64
}

// replay runs the ladder on the workload's own shapes. Call counts follow
// from the topology: every mean-rule aggregation reduces the tier pair
// [y, x] with two WeightedSum calls, every leaf-parent aggregation computes
// one adaptive cosine, and every median-rule aggregation is one Aggregate.
func (b *bench) replay() (replayed, error) {
	var rep replayed
	var err error
	cfg, sh := b.cfg, b.sh
	dim := cfg.Model.Dim()
	if rep.forwardNs, rep.lossGradNs, err = replayNN(cfg); err != nil {
		return rep, err
	}
	gen := dataset.MNISTConfig() // every workload trains on the MNIST-shaped set
	shapes := forwardGEMMs(b.w.spec.Model, gen.Shape, gen.NumClasses)
	rep.gemmNs, rep.gemmGFLOPS = replayGEMM(shapes)

	lp := sh.leafParent()
	for i := range sh.taus {
		n := sh.rounds(i, cfg.T) * sh.widths[i]
		if sh.aggs[i] == "median" {
			rep.medianCalls += n
		} else {
			rep.wsumCalls += 2 * n
		}
	}
	rep.cosineCalls = sh.rounds(lp, cfg.T) * sh.widths[lp]
	if rep.wsumNs, err = replayWeightedSum(dim, sh.fanouts[lp]); err != nil {
		return rep, err
	}
	if rep.cosineNs, err = replayEdgeCosine(dim, sh.fanouts[lp]); err != nil {
		return rep, err
	}
	for i := range sh.aggs {
		if sh.aggs[i] == "median" {
			if rep.medianNs, err = replayMedian(dim, sh.fanouts[i]); err != nil {
				return rep, err
			}
		}
	}
	if b.w.transport != "" {
		// A leaf report: [y, x, Σ∇F, Σy] and its loss.
		if rep.rttMemNs, err = replayRTT(transport.NewMemoryNetwork(), 4, dim); err != nil {
			return rep, fmt.Errorf("memory round trip: %w", err)
		}
		if rep.rttTCPNs, err = replayRTT(transport.NewTCPNetwork(), 4, dim); err != nil {
			return rep, fmt.Errorf("tcp round trip: %w", err)
		}
	}
	return rep, nil
}

func spanMedianUs(spans []span, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e3)
		}
	}
	return median(xs)
}

// layerMetrics derives the per-layer metrics of one traced run.
func (b *bench) layerMetrics(r runResult, rep replayed) map[string]metric {
	p, cfg, sh := r.probe, b.cfg, b.sh
	lp := sh.leafParent()
	edgeRounds := float64(sh.rounds(lp, cfg.T))
	procs := float64(runtime.GOMAXPROCS(0))
	lgBusy := float64(p.lgBusy.Load()) / 1e9
	predBusy := float64(p.predBusy.Load()) / 1e9
	sendBusy := float64(p.sendBusy.Load()) / 1e9
	samples := float64(p.lgCalls.Load() * int64(cfg.BatchSize))
	preds := float64(p.predCalls.Load())
	sends := float64(p.sends.Load())

	wsumBusy := rep.wsumNs * float64(rep.wsumCalls) / 1e9
	cosineBusy := rep.cosineNs * float64(rep.cosineCalls) / 1e9
	medianBusy := rep.medianNs * float64(rep.medianCalls) / 1e9
	rtt := rep.rttMemNs
	if b.w.transport == "tcp" {
		rtt = rep.rttTCPNs
	}

	m := map[string]metric{
		"model.lossgrad.calls":           {float64(p.lgCalls.Load()), "count"},
		"model.lossgrad.busy_s":          {lgBusy, "s"},
		"model.lossgrad.us_p50":          {spanMedianUs(p.spans, "model.lossgrad"), "us"},
		"model.predict.calls":            {preds, "count"},
		"model.predict.busy_s":           {predBusy, "s"},
		"nn.forward.us":                  {rep.forwardNs / 1e3, "us"},
		"nn.forward.busy_s":              {rep.forwardNs * preds / 1e9, "s"},
		"nn.lossgrad.us":                 {rep.lossGradNs / 1e3, "us"},
		"nn.lossgrad.busy_s":             {rep.lossGradNs * samples / 1e9, "s"},
		"tensor.gemm.gflops":             {rep.gemmGFLOPS, "GFLOP/s"},
		"tensor.gemm.busy_s":             {rep.gemmNs * (samples + preds) / 1e9, "s"},
		"tensor.weighted_sum.us":         {rep.wsumNs / 1e3, "us"},
		"tensor.weighted_sum.busy_s":     {wsumBusy, "s"},
		"parallel.utilization":           {lgBusy / (r.trainS * pool), "fraction"},
		"core.edge_cosine.us":            {rep.cosineNs / 1e3, "us"},
		"core.edge_cosine.busy_s":        {cosineBusy, "s"},
		"robust.median.us":               {rep.medianNs / 1e3, "us"},
		"robust.median.busy_s":           {medianBusy, "s"},
		"robust.aggregate.calls":         {float64(rep.medianCalls), "count"},
		"transport.send.calls":           {sends, "count"},
		"transport.send.busy_s":          {sendBusy, "s"},
		"transport.send.us_p50":          {spanMedianUs(p.spans, "transport.send"), "us"},
		"transport.payload_mb":           {float64(p.sendBytes.Load()) / 1e6, "MB"},
		"transport.msgs_per_round":       {sends / edgeRounds, "count"},
		"transport.payload_kb_per_round": {float64(p.sendBytes.Load()) / 1e3 / edgeRounds, "KB"},
		"transport.recv.timeouts":        {float64(p.timeouts.Load()), "count"},
		"transport.rtt_us.memory":        {rep.rttMemNs / 1e3, "us"},
		"transport.rtt_us.tcp":           {rep.rttTCPNs / 1e3, "us"},
		"transport.wire.busy_s":          {rtt / 2 * sends / 1e9, "s"},
		"cluster.overhead_share":         {1 - (lgBusy+predBusy)/(r.trainS*procs), "fraction"},
		"runtime.gc_cycles":              {float64(r.gcCycles), "count"},
		"runtime.gc_pause_ms":            {float64(r.gcPauseNs) / 1e6, "ms"},
		"runtime.mallocs_per_round":      {float64(r.mallocs), "count"},
		"trace.attributed_share":         {(lgBusy + predBusy + sendBusy + wsumBusy + cosineBusy + medianBusy) / (r.trainS * procs), "fraction"},
		"tta_s":                          {max(r.ttaS, 0), "s"},
	}
	for t := 0; t < maxTiers; t++ {
		m[fmt.Sprintf("transport.recv.wait_s.tier%d", t)] = metric{float64(p.recvWait[t].Load()) / 1e9, "s"}
	}
	for t := 0; t < 3; t++ {
		m[fmt.Sprintf("cluster.round_ms_p50.tier%d", t)] = metric{median(p.roundIntervals(t)), "ms"}
	}
	iv := p.roundIntervals(lp)
	pct, tailMs := tail(iv)
	m["round.ms_tail"] = metric{tailMs, "ms"}
	m["round.tail_pct"] = metric{pct, "%"}
	m["round.samples"] = metric{float64(len(iv)), "count"}
	return m
}

// writeSpans writes one traced run's spans, plus one span per leaf-parent
// round and one for the whole run, as JSON lines.
func (b *bench) writeSpans(r runResult) error {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	p := r.probe
	spans := append([]span(nil), p.spans...)
	marks := p.rounds[b.sh.leafParent()]
	for i := 1; i < len(marks); i++ {
		spans = append(spans, span{Name: "round", Start: marks[i-1].at, End: marks[i].at,
			Tier: b.sh.leafParent(), Round: marks[i].round})
	}
	spans = append(spans, span{Name: "run", End: p.firstStepNs() + int64(r.trainS*1e9)})
	f, err := os.Create(filepath.Join(spanDir, b.w.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
