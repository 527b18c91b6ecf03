package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"

	"hieradmo/internal/core"
	"hieradmo/internal/transport"
)

// freePorts reserves n distinct loopback ports by binding and releasing
// them. The tiny race between release and reuse is acceptable in tests.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// TestStaticNodesMatchSimulation drives the multi-process deployment path
// (per-node entry points + static registry TCP endpoints, each node building
// its own config and harness) and checks bit-equality with the simulation.
func TestStaticNodesMatchSimulation(t *testing.T) {
	cfg := buildConfig(t, 107, 2)
	sim, err := core.New().Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ids := []string{CloudID, EdgeID(0), EdgeID(1),
		WorkerID(0, 0), WorkerID(0, 1), WorkerID(1, 0), WorkerID(1, 1)}
	ports := freePorts(t, len(ids))
	registry := make(map[string]string, len(ids))
	for i, id := range ids {
		registry[id] = ports[i]
	}

	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		errs   []error
		result = make(chan error, 1)
	)
	fail := func(err error) {
		if err == nil {
			return
		}
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}
	opts := Options{Adaptive: true}

	for l := 0; l < 2; l++ {
		for i := 0; i < 2; i++ {
			l, i := l, i
			ep, err := transport.ListenStatic(WorkerID(l, i), registry)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer ep.Close()
				_, err := RunTreeNode(cfg, 2, 2*l+i, ep, opts)
				fail(err)
			}()
		}
		l := l
		ep, err := transport.ListenStatic(EdgeID(l), registry)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ep.Close()
			_, err := RunTreeNode(cfg, 1, l, ep, opts)
			fail(err)
		}()
	}

	cloudEP, err := transport.ListenStatic(CloudID, registry)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer cloudEP.Close()
		res, err := RunTreeNode(cfg, 0, 0, cloudEP, opts)
		if err != nil {
			result <- err
			return
		}
		if res.FinalAcc != sim.FinalAcc {
			result <- fmt.Errorf("static nodes %v != simulation %v", res.FinalAcc, sim.FinalAcc)
			return
		}
		result <- nil
	}()

	wg.Wait()
	mu.Lock()
	for _, err := range errs {
		t.Error(err)
	}
	mu.Unlock()
	if err := <-result; err != nil {
		t.Error(err)
	}
}

func TestNodeEntryPointValidation(t *testing.T) {
	cfg := buildConfig(t, 109, 0)
	net := transport.NewMemoryNetwork()
	defer net.Close()
	ep, err := net.Endpoint("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunTreeNode(cfg, 9, 0, ep, Options{}); err == nil {
		t.Error("out-of-range level accepted")
	}
	if _, err := RunTreeNode(cfg, 2, 9, ep, Options{}); err == nil {
		t.Error("out-of-range worker accepted")
	}
	if _, err := RunTreeNode(cfg, 1, -1, ep, Options{}); err == nil {
		t.Error("negative edge accepted")
	}
	bad := *cfg
	bad.T = 7
	if _, err := RunTreeNode(&bad, 2, 0, ep, Options{}); err == nil {
		t.Error("invalid config accepted by worker node")
	}
	if _, err := RunTreeNode(&bad, 0, 0, ep, Options{}); err == nil {
		t.Error("invalid config accepted by cloud node")
	}
}

func TestListenStaticErrors(t *testing.T) {
	if _, err := transport.ListenStatic("ghost", map[string]string{"a": "127.0.0.1:0"}); err == nil {
		t.Error("missing own registry entry accepted")
	}
	if _, err := transport.ListenStatic("a", map[string]string{"a": "999.999.999.999:1"}); err == nil {
		t.Error("unbindable address accepted")
	}
}
