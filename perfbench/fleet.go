package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"
)

// fleet-run: two tdxd nodes gossiping over loopback. The mappings are
// registered on node a only and the clients alternate between the
// nodes, so about half of all requests reach node b and are forwarded
// to a. The pool is a smaller serve-hot pool, warmed through both
// nodes. This is the only workload that exercises internal/fleet.

const (
	fleetDocs = 18
	// fleetRate is the open-loop rate, fixed here and never searched
	// for: at most 40% of the slowest raw ops_per_s measured (see plan.rate).
	fleetRate = 20.0
	// gossipInterval is short so a fresh fleet converges within setup.
	gossipInterval = "100ms"
)

type fleetState struct {
	a, b   *daemon
	hashes map[string]string
}

func (f *fleetState) nodes() []*daemon { return []*daemon{f.a, f.b} }

// startFleet boots node a, then node b seeded with a's gossip address,
// registers the mappings on a, and warms every document through both
// nodes once b has learned that a holds them.
func (b *bench) startFleet(i int, client *http.Client, p *pool, settings []*setting) (*fleetState, error) {
	var (
		ports [4]int
		err   error
	)
	for k := range ports {
		network := "tcp"
		if k >= 2 {
			network = "udp"
		}
		if ports[k], err = freePort(network); err != nil {
			return nil, err
		}
	}
	node := func(name string, http, gossip int, peers string) (*daemon, error) {
		addr := fmt.Sprintf("127.0.0.1:%d", http)
		state := filepath.Join(b.work, fmt.Sprintf("fleet-%d-%s", i, name))
		args := []string{"-addr", addr, "-state", state, "-advertise", addr, "-node-id", name,
			"-gossip", fmt.Sprintf("127.0.0.1:%d", gossip), "-gossip-interval", gossipInterval}
		if peers != "" {
			args = append(args, "-peers", peers)
		}
		return b.launch(fmt.Sprintf("tdxd-fleet-%d-%s", i, name), addr, state, args)
	}
	a, err := node("a", ports[0], ports[2], "")
	if err != nil {
		return nil, err
	}
	bn, err := node("b", ports[1], ports[3], fmt.Sprintf("127.0.0.1:%d", ports[2]))
	if err != nil {
		a.kill()
		return nil, err
	}
	f := &fleetState{a: a, b: bn}
	if f.hashes, err = register(client, a, settings); err == nil {
		err = waitForwarded(client, f, p)
	}
	if err == nil {
		err = newHotOps(b, client, p, f.hashes, nil).warm(p, bn, a)
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// waitForwarded waits until node b forwards a request for every
// registered exchange, which it can do once gossip has told it that a
// holds them.
func waitForwarded(c *http.Client, f *fleetState, p *pool) error {
	deadline := time.Now().Add(20 * time.Second)
	seen := map[string]bool{}
	for _, d := range p.docs {
		if seen[d.set.name] {
			continue
		}
		seen[d.set.name] = true
		for {
			_, err := post(c, f.b.url("/v1/exchanges/"+f.hashes[d.set.name]+"/run"), "application/json", d.body)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("node b never reached exchange %s: %v", d.set.name, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

func (f *fleetState) stop() {
	for _, n := range f.nodes() {
		n.kill()
		_ = os.RemoveAll(n.state)
	}
}

func runFleetRun(b *bench) (map[string]float64, error) {
	settings, err := allSettings()
	if err != nil {
		return nil, err
	}
	p, err := b.newPool(settings, fleetDocs)
	if err != nil {
		return nil, err
	}
	client := newClient()
	reps := 3
	if b.trace {
		reps = 1
	}
	f, setupS, err := timeSetup(b, reps, func(i int) (*fleetState, error) { return b.startFleet(i, client, p, settings) },
		func(f *fleetState) { f.stop() })
	if err != nil {
		return nil, err
	}
	defer f.stop()
	nodes := f.nodes()
	// Ops alternate between the nodes, and the pairing of mix items with
	// nodes flips every cycle, so both nodes serve the same mix.
	var ops *hotOps
	ops = newHotOps(b, client, p, f.hashes, func(n int64) (*daemon, int) {
		k := int((n + n/int64(len(ops.mix))) % 2)
		return nodes[k], k
	})
	out := map[string]float64{}
	if b.trace {
		return out, b.hotTraced(ops, nodes, settings, out)
	}
	out["setup_s"] = setupS
	if err := b.measureServer(phaseOps{latency: ops.op, cycle: len(ops.mix)}, fleetRate, nodes, out); err != nil {
		return nil, err
	}
	return out, nil
}
