package main

import (
	"fmt"
	"sort"
	"time"

	"hieradmo/internal/core"
	"hieradmo/internal/dataset"
	"hieradmo/internal/fl"
	"hieradmo/internal/model"
	"hieradmo/internal/rng"
	"hieradmo/internal/robust"
	"hieradmo/internal/tensor"
	"hieradmo/internal/transport"
)

// The replay ladder times public functions on a workload's own shapes,
// outside any training run, for the layers the wrappers cannot time from
// inside a run. Each figure is the median of several batches, each batch
// long enough to dwarf the clock's resolution.

const (
	replayBatch   = 5 * time.Millisecond
	replayBatches = 7
)

// perCallNs returns the median per-call time of fn in nanoseconds.
func perCallNs(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= replayBatch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	per := make([]float64, replayBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// gemmShape is one GEMMBias call: dst (m×n) = A (m×k) · B (k×n) + bias.
type gemmShape struct{ m, n, k, kChunk int }

// forwardGEMMs lists the GEMMBias calls of one forward pass of the
// workload's model on the MNIST-shaped input (1×14×14, 10 classes). The CNN
// mirrors model.NewCNN: two 3×3 pad-1 convolutions of 8 and 16 channels on
// the im2col path (kChunk = 3·3), each followed by a 2×2 pool, then a dense
// classifier; logistic regression is the dense layer alone.
func forwardGEMMs(modelName string, sh dataset.Shape, classes int) []gemmShape {
	if modelName != "cnn" {
		return []gemmShape{{m: classes, n: 1, k: sh.Size()}}
	}
	h1, w1 := sh.H, sh.W
	h2, w2 := h1/2, w1/2
	return []gemmShape{
		{m: 8, n: h1 * w1, k: sh.C * 9, kChunk: 9},
		{m: 16, n: h2 * w2, k: 8 * 9, kChunk: 9},
		{m: classes, n: 1, k: 16 * (h2 / 2) * (w2 / 2)},
	}
}

// replayGEMM returns the per-forward-pass GEMM time in ns and its GFLOP/s.
func replayGEMM(shapes []gemmShape) (ns, gflops float64) {
	r := rng.New(7)
	var flops float64
	for _, s := range shapes {
		dst := make([]float64, s.m*s.n)
		a := randVec(r, s.m*s.k)
		b := randVec(r, s.k*s.n)
		bias := randVec(r, s.m)
		ns += perCallNs(func() { tensor.GEMMBias(dst, a, b, bias, s.m, s.n, s.k, s.kChunk) })
		flops += float64(2 * s.m * s.n * s.k)
	}
	return ns, flops / ns
}

func randVec(r *rng.RNG, n int) tensor.Vector {
	v := tensor.NewVector(n)
	for i := range v {
		v[i] = r.Norm()
	}
	return v
}

func randVecs(r *rng.RNG, count, dim int) []tensor.Vector {
	out := make([]tensor.Vector, count)
	for i := range out {
		out[i] = randVec(r, dim)
	}
	return out
}

// replayNN returns the per-sample Network.Forward and Network.LossGrad
// times in ns on the workload's model and test samples.
func replayNN(cfg *fl.Config) (forwardNs, lossGradNs float64, err error) {
	nm, ok := cfg.Model.(*model.NetModel)
	if !ok {
		return 0, 0, fmt.Errorf("model %s is not a network model", cfg.Model.Name())
	}
	net := nm.Network()
	params := net.Init(rng.New(cfg.Seed))
	grad := tensor.NewVector(net.Dim())
	samples := cfg.Test.Samples
	i := 0
	forwardNs = perCallNs(func() {
		s := samples[i%len(samples)]
		i++
		if _, ferr := net.Forward(params, s.X); ferr != nil {
			err = ferr
		}
	})
	lossGradNs = perCallNs(func() {
		s := samples[i%len(samples)]
		i++
		if _, lerr := net.LossGrad(params, s.X, s.Label, grad); lerr != nil {
			err = lerr
		}
	})
	return forwardNs, lossGradNs, err
}

// replayWeightedSum times the mean rule's reduction of fanout reports of
// dimension dim.
func replayWeightedSum(dim, fanout int) (float64, error) {
	r := rng.New(11)
	dst := tensor.NewVector(dim)
	vs := randVecs(r, fanout, dim)
	weights := make([]float64, fanout)
	for i := range weights {
		weights[i] = 1 / float64(fanout)
	}
	var err error
	ns := perCallNs(func() {
		if werr := tensor.WeightedSum(dst, weights, vs); werr != nil {
			err = werr
		}
	})
	return ns, err
}

// replayEdgeCosine times eq. (6) over fanout workers of dimension dim.
func replayEdgeCosine(dim, fanout int) (float64, error) {
	r := rng.New(13)
	gradSums := randVecs(r, fanout, dim)
	signals := randVecs(r, fanout, dim)
	weights := make([]float64, fanout)
	for i := range weights {
		weights[i] = 1 / float64(fanout)
	}
	var err error
	ns := perCallNs(func() {
		if _, cerr := core.EdgeCosine(weights, gradSums, signals); cerr != nil {
			err = cerr
		}
	})
	return ns, err
}

// replayMedian times the coordinate-wise median rule aggregating the two
// tier components [y, x] from fanout children of dimension dim.
func replayMedian(dim, fanout int) (float64, error) {
	agg, err := robust.New(robust.Spec{Kind: robust.Median})
	if err != nil {
		return 0, err
	}
	r := rng.New(17)
	dsts := randVecs(r, 2, dim)
	prev := randVecs(r, 2, dim)
	comps := [][]tensor.Vector{randVecs(r, fanout, dim), randVecs(r, fanout, dim)}
	weights := make([]float64, fanout)
	for i := range weights {
		weights[i] = 1 / float64(fanout)
	}
	ns := perCallNs(func() {
		if _, aerr := agg.Aggregate(dsts, prev, weights, comps); aerr != nil {
			err = aerr
		}
	})
	return ns, err
}

// replayRTT ping-pongs one message of nvec vectors of dimension dim
// between two endpoints of a fresh network and returns the round trip in
// ns.
func replayRTT(net transport.Network, nvec, dim int) (float64, error) {
	defer net.Close()
	a, err := net.Endpoint("bench-a")
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := net.Endpoint("bench-b")
	if err != nil {
		return 0, err
	}
	defer b.Close()
	msg := transport.Message{Kind: "bench", Vectors: randVecsF(nvec, dim), Scalars: map[string]float64{"loss": 1}}
	hop := func(from, to transport.Endpoint) {
		if err == nil {
			err = from.Send(to.ID(), msg)
		}
		if err == nil {
			_, err = to.RecvTimeout(recvTimeout)
		}
	}
	ns := perCallNs(func() {
		hop(a, b)
		hop(b, a)
	})
	return ns, err
}

func randVecsF(count, dim int) [][]float64 {
	out := make([][]float64, count)
	for i, v := range randVecs(rng.New(19), count, dim) {
		out[i] = v
	}
	return out
}
