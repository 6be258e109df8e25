package main

import (
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/nbf"
	"repro/internal/tsn"
)

// nbfCounter accumulates recovery simulations seen by probes.
type nbfCounter struct {
	calls atomic.Int64
	nanos atomic.Int64
}

// recoverUS is the mean wall time of one recovery simulation.
func (c *nbfCounter) recoverUS() float64 {
	return ratio(float64(c.nanos.Load())/1e3, float64(c.calls.Load()))
}

// nbfProbe is a pass-through decorator on a problem's NBF that counts and
// times Recover calls. It keeps the inner Name, because verdict-cache and
// checkpoint keys include it, so wrapping changes no key and no result.
type nbfProbe struct {
	inner nbf.NBF
	c     *nbfCounter
}

func (p *nbfProbe) Name() string { return p.inner.Name() }

func (p *nbfProbe) Recover(topo *graph.Graph, f nbf.Failure, net tsn.Network, fs tsn.FlowSet) (*tsn.State, []tsn.Pair, error) {
	start := time.Now()
	st, er, err := p.inner.Recover(topo, f, net, fs)
	p.c.nanos.Add(int64(time.Since(start)))
	p.c.calls.Add(1)
	return st, er, err
}

// clonerProbe is the probe for an NBF that implements nbf.Cloner: the
// analyzer then clones it per worker, and each clone probes a clone of the
// inner mechanism into the same counter.
type clonerProbe struct{ nbfProbe }

func (p *clonerProbe) CloneForWorker() nbf.NBF {
	return probeNBF(nbf.ForWorker(p.inner), p.c)
}

// probeNBF wraps n, forwarding nbf.Cloner exactly when n implements it.
func probeNBF(n nbf.NBF, c *nbfCounter) nbf.NBF {
	if _, ok := n.(nbf.Cloner); ok {
		return &clonerProbe{nbfProbe{inner: n, c: c}}
	}
	return &nbfProbe{inner: n, c: c}
}
