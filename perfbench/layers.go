package main

import (
	"fmt"
	"runtime"
	"time"

	"commdb/internal/core"
	"commdb/internal/fulltext"
	"commdb/internal/graph"
	"commdb/internal/index"
	"commdb/internal/relational"
	"commdb/internal/sssp"
)

// layerKit is the traced run's view of one query: it calls each layer's
// public function in turn, timing each call with this process's CPU
// clock, so the program itself carries no tracing. Queries run here
// sequentially (parallelism 1), so a CPU interval belongs to the one
// layer being called; the public path's own goroutines are what
// commdb.api_ms leaves over.
type layerKit struct {
	g    *graph.Graph
	ft   *fulltext.Index
	ix   *index.Index
	pool *sssp.Pool

	toGraph, ftBuild, ixBuild time.Duration

	queries, projNodes, cores, comms, commNodes, enumRuns int
	project, init, enum, getComm                          time.Duration
	// api holds each query's public-path CPU beyond the layers, in ms.
	api samples
	err error
}

// newLayerKit times the set-up layers one by one over db, and keeps the
// fulltext index and, when indexed, the inverted indexes for the query
// layers. g is the graph the searcher under test serves; ToGraph is
// timed on a fresh copy.
func newLayerKit(db *relational.Database, g *graph.Graph, indexed bool) (*layerKit, error) {
	k := &layerKit{g: g, pool: sssp.NewPool()}
	runtime.GC()
	c := selfCPU()
	if _, _, err := db.ToGraph(); err != nil {
		return nil, err
	}
	k.toGraph = selfCPU() - c
	runtime.GC()
	c = selfCPU()
	k.ft = fulltext.Build(g)
	k.ftBuild = selfCPU() - c
	if indexed {
		runtime.GC()
		c = selfCPU()
		ix, err := index.Build(g, index.BuildOptions{R: indexR})
		if err != nil {
			return nil, err
		}
		k.ixBuild = selfCPU() - c
		k.ix = ix
	}
	return k, nil
}

// collect runs a collection before a public run that trace will replay,
// outside the timing; a nil kit (an untraced run) does nothing.
func (k *layerKit) collect() {
	if k != nil {
		runtime.GC()
	}
}

// coreSource is the enumerators' core-by-core face.
type coreSource interface {
	NextCore() (core.CoreCost, bool)
}

// trace replays q layer by layer, producing as many communities as the
// public path did, and charges the public path's CPU beyond the layers
// to commdb.api_ms. The public run starts after a collection (see
// collect), and so does the replay, so each path's garbage stays out of
// the other's CPU intervals.
func (k *layerKit) trace(q inQuery, api opTimes) {
	if k.err != nil {
		return
	}
	runtime.GC()
	target, ft := k.g, k.ft
	var proj time.Duration
	if k.ix != nil {
		c := selfCPU()
		p, err := k.ix.Project(q.kws, q.rmax)
		proj = selfCPU() - c
		if err != nil {
			k.err = fmt.Errorf("traced projection %v: %w", q.kws, err)
			return
		}
		target, ft = p.Sub.G, nil
		k.projNodes += p.Sub.G.NumNodes()
	}
	c := selfCPU()
	eng, err := core.NewEngineCfg(target, ft, q.kws, q.rmax, core.EngineConfig{Pool: k.pool, Parallelism: 1})
	if err != nil {
		k.err = fmt.Errorf("traced engine %v: %w", q.kws, err)
		return
	}
	eng.PrecomputeNeighborSets()
	init := selfCPU() - c
	initRuns := eng.NeighborRuns()
	var src coreSource = core.NewTopK(eng)
	if q.all {
		src = core.NewAll(eng)
	}
	var enum, getComm time.Duration
	for i := 0; i < len(api.comms); i++ {
		c = selfCPU()
		cc, ok := src.NextCore()
		enum += selfCPU() - c
		if !ok {
			k.err = fmt.Errorf("traced enumeration of %v ended after %d of %d cores", q.kws, i, len(api.comms))
			break
		}
		c = selfCPU()
		comm := eng.GetCommunity(cc.Core)
		getComm += selfCPU() - c
		k.cores++
		k.comms++
		k.commNodes += len(comm.Nodes)
	}
	k.enumRuns += eng.NeighborRuns() - initRuns
	eng.Close()
	k.queries++
	k.project += proj
	k.init += init
	k.enum += enum
	k.getComm += getComm
	k.api.add(ms(api.totalCPU - (proj + init + enum + getComm)))
}

func per(d time.Duration, n int) float64 { return ms(d) / float64(max(n, 1)) }

// report sets the set-up and query layer metrics, and records in info
// whether commdb.api_ms is resolved: a difference of two CPU
// measurements, it is resolved only when it lies more than two standard
// errors above zero.
func (k *layerKit) report(m metrics, info map[string]any) error {
	if k.err != nil {
		return k.err
	}
	m.set("relational.to_graph_ms", "ms", ms(k.toGraph))
	m.set("fulltext.build_ms", "ms", ms(k.ftBuild))
	m.set("index.build_ms", "ms", ms(k.ixBuild))
	m.set("index.project_ms", "ms", per(k.project, k.queries))
	m.set("index.projected_nodes", "count", float64(k.projNodes)/float64(max(k.queries, 1)))
	m.set("core.engine_init_ms", "ms", per(k.init, k.queries))
	m.set("core.enumerate_ms", "ms", per(k.enum, k.cores))
	m.set("core.neighbor_runs", "count", float64(k.enumRuns)/float64(max(k.cores, 1)))
	m.set("core.getcommunity_ms", "ms", per(k.getComm, k.comms))
	m.set("core.community_nodes", "count", float64(k.commNodes)/float64(max(k.comms, 1)))
	mean := 0.0
	if len(k.api) > 0 {
		mean = k.api.mean()
	}
	se := k.api.stderr()
	m.set("commdb.api_ms", "ms", mean)
	info["api_ms"] = map[string]any{"mean": mean, "stderr": orNil(se), "queries": len(k.api), "resolved": mean-2*se > 0}
	return nil
}

// serverLayers are the per-layer metrics only live measures; the
// in-process workloads run no server and no maintenance, so they
// report them as 0.
var serverLayers = []struct{ name, unit string }{
	{"delta.apply_ms", "ms"}, {"delta.to_graph_ms", "ms"}, {"delta.repair_ms", "ms"},
	{"delta.remap_ms", "ms"}, {"delta.merge_ms", "ms"}, {"delta.publish_ms", "ms"},
	{"delta.dirty_terms", "count"},
	{"server.cache_hit_ratio", "ratio"}, {"server.cache_lookups", "count"},
	{"server.hit_cpu_ms", "ms"}, {"server.miss_cpu_ms", "ms"},
	{"snapshot.reloads", "count"}, {"snapshot.rollbacks", "count"},
}

func zeroServerLayers(m metrics) {
	for _, l := range serverLayers {
		m.set(l.name, l.unit, 0)
	}
}
