package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"commdb"
	"commdb/internal/datagen"
	"commdb/internal/relational"
)

// paper and scan call the root commdb API in-process; their CPU times
// are this process's CPU clock, which counts the garbage collector too.
// Their searchers run queries sequentially (WithParallelism(1)): CPU
// time cannot credit the materialization pipeline, and its lookahead
// and worker start-up make a query's CPU depend on thread scheduling
// (on scan, the first community cost 107-124 ms of CPU at parallelism 2
// against 77-78 ms at 1, same seed).

const (
	// paperAuthors and paperBoost are the experiment harness's usual
	// reduced DBLP scale (~137k tuples) with its probe-KWF boost.
	paperAuthors = 20000
	paperBoost   = 2.5
	// indexR is the largest Table II radius: the index radius for paper
	// and live, and the checker's cache radius.
	indexR = 8
	// paperAllCap caps a COMM-all query, so every query weighs about
	// the same among the per-community delay samples and the rare
	// exploding query stays bounded.
	paperAllCap = 50

	// scanAuthors gives ~1M tuples at the real DBLP table ratios.
	scanAuthors = 146000
	scanPage    = 5
	scanRmaxMin = 4
	scanRmaxMax = 6

	// setupReps set-ups are timed per run; the median is reported.
	setupReps = 3
	// applyBatches mutation batches of applyOps ops each are applied
	// per run; the median is reported.
	applyBatches = 3
	applyOps     = 10
)

// inQuery is one in-process operation.
type inQuery struct {
	kws  []string
	rmax float64
	k    int // results wanted (COMM-k) or the cap (COMM-all)
	all  bool
}

func (q inQuery) query() commdb.Query { return commdb.Query{Keywords: q.kws, Rmax: q.rmax} }

func (q inQuery) key() string {
	return fmt.Sprintf("%v|%s|%d", q.all, q.query().Fingerprint(), q.k)
}

// inprocSpec is what differs between paper and scan.
type inprocSpec struct {
	authors int
	boost   float64
	opts    []commdb.Option
	indexed bool
	// round draws the next round of queries; every round has the same
	// number of COMM-k and COMM-all queries.
	round func(r int) []inQuery
	// checkCenters is how many leading communities of each answer get
	// their centers verified.
	checkCenters int
	// indexSample compares one COMM-k answer per round against an
	// unindexed search of the full graph.
	indexSample bool
	// abandon adds one abandoned COMM-k query per round.
	abandon bool
}

func boostedProbes(boost float64) []datagen.Probe {
	probes := datagen.DBLPProbes()
	for i := range probes {
		probes[i].KWF *= boost
	}
	return probes
}

func genDBLP(authors int, boost float64, seed int64) (*relational.Database, error) {
	return datagen.GenerateDBLP(datagen.DBLPParams{Authors: authors, Seed: seed, Probes: boostedProbes(boost)})
}

// paperRounds returns the paper round generator: round 0 is the Table
// II sweep around the defaults (KWF, l, Rmax, k varied one at a time),
// later rounds a seeded mix from the same ranges. No query repeats.
func paperRounds(seed int64) func(int) []inQuery {
	probes := boostedProbes(paperBoost)
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	const defKWF, defL, defR, defK = 2, 4, 6, 150 // KWF 0.0009 is probes[2]
	add := func(out []inQuery, q inQuery) []inQuery {
		seen[q.key()] = true
		return append(out, q)
	}
	// The KWF bucket sets most of a query's cost, so the mix takes the
	// buckets in turn (separately for COMM-k and COMM-all) and draws the
	// rest: a run's median then does not hang on how often each bucket
	// happened to be drawn.
	turn := map[bool]int{}
	mix := func(all bool) inQuery {
		for {
			p := probes[turn[all]%len(probes)]
			turn[all]++
			l := 2 + rng.Intn(min(6, len(p.Words))-1)
			perm := rng.Perm(len(p.Words))[:l]
			kws := make([]string, l)
			for i, j := range perm {
				kws[i] = p.Words[j]
			}
			q := inQuery{kws: kws, rmax: float64(400+rng.Intn(401)) / 100, k: 50 + rng.Intn(201), all: all}
			if all {
				q.k = paperAllCap
			}
			if !seen[q.key()] {
				return q
			}
		}
	}
	return func(r int) []inQuery {
		var out []inQuery
		if r == 0 {
			pt := func(kwf, l int, rmax float64, k int) {
				q := inQuery{kws: probes[kwf].Words[:l], rmax: rmax, k: k}
				if !seen[q.key()] {
					out = add(out, q)
				}
			}
			for i := range probes {
				pt(i, defL, defR, defK)
			}
			for l := 2; l <= 6; l++ {
				pt(defKWF, l, defR, defK)
			}
			for rmax := 4.0; rmax <= 8; rmax++ {
				pt(defKWF, defL, rmax, defK)
			}
			for k := 50; k <= 250; k += 50 {
				pt(defKWF, defL, defR, k)
			}
		}
		for len(out) < 17 {
			out = add(out, mix(false))
		}
		for i := 0; i < 8; i++ {
			out = add(out, mix(true))
		}
		return out
	}
}

// scanRounds draws first-page queries whose keywords follow a Zipf law
// over the probe words, so hot keywords recur across queries.
func scanRounds(seed int64) func(int) []inQuery {
	rng := rand.New(rand.NewSource(seed))
	var words []string
	for _, p := range datagen.DBLPProbes() {
		words = append(words, p.Words...)
	}
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(words)-1))
	// l is uniform over 2-4: costs rise with l, and with two values the
	// median would sit on the edge between them.
	draw := func(all bool) inQuery {
		l := 2 + rng.Intn(3)
		var kws []string
		for len(kws) < l {
			w := words[z.Uint64()]
			dup := false
			for _, k := range kws {
				dup = dup || k == w
			}
			if !dup {
				kws = append(kws, w)
			}
		}
		rmax := float64(scanRmaxMin*100+rng.Intn((scanRmaxMax-scanRmaxMin)*100+1)) / 100
		return inQuery{kws: kws, rmax: rmax, k: scanPage, all: all}
	}
	return func(int) []inQuery {
		return []inQuery{draw(false), draw(false), draw(false), draw(false), draw(true), draw(true)}
	}
}

func runPaper(o options) (*run, error) {
	return runInproc(o, inprocSpec{
		authors:      paperAuthors,
		boost:        paperBoost,
		opts:         []commdb.Option{commdb.WithIndex(indexR), commdb.WithParallelism(1)},
		indexed:      true,
		round:        paperRounds(o.seed),
		checkCenters: 10,
		indexSample:  true,
		abandon:      true,
	})
}

func runScan(o options) (*run, error) {
	return runInproc(o, inprocSpec{
		authors:      scanAuthors,
		boost:        1,
		opts:         []commdb.Option{commdb.WithParallelism(1)},
		round:        scanRounds(o.seed),
		checkCenters: 3,
	})
}

// opTimes is one query's CPU (and reference wall) figures.
type opTimes struct {
	firstCPU, totalCPU, firstWall, totalWall time.Duration
	// delays is the CPU spent per emitted community: from the call to
	// the first, then between consecutive ones.
	delays    []time.Duration
	comms     []*commdb.Community
	exhausted bool
}

// runOne runs q through the public API, timing it from the call to the
// Close that tears down its goroutines.
func runOne(s *commdb.Searcher, q inQuery) (opTimes, error) {
	var t opTimes
	c0, w0 := selfCPU(), time.Now()
	var it *commdb.Results
	var err error
	if q.all {
		it, err = s.All(q.query())
	} else {
		it, err = s.TopK(q.query())
	}
	if err != nil {
		return t, err
	}
	prev := c0
	for len(t.comms) < q.k {
		r, ok := it.Next()
		if !ok {
			t.exhausted = true
			break
		}
		now := selfCPU()
		if len(t.comms) == 0 {
			t.firstCPU, t.firstWall = now-c0, time.Since(w0)
		}
		t.delays = append(t.delays, now-prev)
		prev = now
		t.comms = append(t.comms, r)
	}
	err = it.Close()
	t.totalCPU, t.totalWall = selfCPU()-c0, time.Since(w0)
	return t, err
}

// setup times ToGraph plus Open from the generated database.
func setup(db *relational.Database, opts []commdb.Option) (*commdb.Graph, *commdb.Searcher, time.Duration, time.Duration, error) {
	runtime.GC()
	c0, w0 := selfCPU(), time.Now()
	g, _, err := db.ToGraph()
	if err != nil {
		return nil, nil, 0, 0, err
	}
	s, err := commdb.Open(g, opts...)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return g, s, selfCPU() - c0, time.Since(w0), nil
}

func runInproc(o options, spec inprocSpec) (*run, error) {
	r := newRun()
	db, err := genDBLP(spec.authors, spec.boost, o.seed)
	if err != nil {
		return nil, err
	}
	tuples := db.NumTuples()
	var setupCPU, setupWall samples
	var g *commdb.Graph
	var s *commdb.Searcher
	for i := 0; i < setupReps; i++ {
		var c, w time.Duration
		g, s, c, w, err = setup(db, spec.opts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupCPU.add(c.Seconds())
		setupWall.add(w.Seconds())
	}
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	var lay *layerKit
	if o.trace {
		if lay, err = newLayerKit(db, g, spec.indexed); err != nil {
			return nil, err
		}
	}
	chk := newChecker(g, math.Max(indexR, scanRmaxMax))
	var plain, fig4 *commdb.Searcher
	if spec.indexSample {
		if plain, err = commdb.Open(g, commdb.WithParallelism(1)); err != nil {
			return nil, err
		}
	}
	if spec.abandon {
		pg, _ := commdb.PaperExampleGraph()
		// Two workers regardless of the host, so the pipeline (and its
		// lookahead) runs the same way on any machine.
		if fig4, err = commdb.Open(pg, commdb.WithParallelism(2)); err != nil {
			return nil, err
		}
	}

	var firstCPU, topkCPU, reqCPU, delayCPU, firstWall, topkWall, reqWall samples
	var cpuSum time.Duration
	queries, abandoned, repeated := 0, 0, 0
	kwUses := map[string]int{}
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for i, q := range spec.round(round) {
			r.Attempted++
			for _, kw := range q.kws {
				if kwUses[kw] > 0 {
					repeated++
				}
				kwUses[kw]++
			}
			lay.collect()
			t, err := runOne(s, q)
			if err != nil {
				r.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: query %+v failed: %v\n", q, err)
				continue
			}
			queries++
			cpuSum += t.totalCPU
			reqCPU.add(ms(t.totalCPU))
			reqWall.add(ms(t.totalWall))
			if len(t.comms) > 0 {
				if !q.all {
					firstCPU.add(ms(t.firstCPU))
					firstWall.add(ms(t.firstWall))
				} else {
					for _, d := range t.delays {
						delayCPU.add(ms(d))
					}
				}
			}
			if !q.all {
				topkCPU.add(ms(t.totalCPU))
				topkWall.add(ms(t.totalWall))
			}
			if lay != nil {
				lay.trace(q, t)
			}
			checkAnswer(r, chk, s, q, t, spec.checkCenters)
			if spec.indexSample && i == 0 && !q.all {
				compareAnswers(r, "indexed vs unindexed", q, t.comms, plain)
			}
		}
		if spec.abandon {
			r.Attempted++
			abandoned++
			if err := abandonOnce(fig4); err != nil {
				r.Failed++
				if round == 0 {
					fmt.Fprintf(os.Stderr, "perfbench: abandoned query: %v\n", err)
				}
			}
		}
	}

	var applyCPU, applyWall samples
	for b := 0; b < applyBatches; b++ {
		c, w, err := applyRebuild(db, spec.opts, o.seed+int64(b)+1)
		if err != nil {
			return nil, fmt.Errorf("apply: %w", err)
		}
		applyCPU.add(ms(c))
		applyWall.add(ms(w))
	}

	e2e := metrics{}
	e2e.set("setup_s", "s", setupCPU.p50())
	e2e.set("mem_mb", "MB", float64(mem.HeapAlloc)/(1<<20))
	e2e.set("first_cpu_ms.p50", "ms", firstCPU.p50())
	e2e.set("topk_cpu_ms.p50", "ms", topkCPU.p50())
	e2e.set("all_delay_cpu_ms.p50", "ms", delayCPU.p50())
	e2e.set("queries_per_cpu_s", "1/s", float64(queries)/cpuSum.Seconds())
	e2e.set("apply_cpu_ms.p50", "ms", applyCPU.p50())
	e2e.set("request_cpu_ms.p50", "ms", reqCPU.p50())
	if lay != nil {
		if err := lay.report(r.Metrics, r.info); err != nil {
			return nil, err
		}
		zeroServerLayers(r.Metrics)
		r.info["traced_end_to_end"] = e2e
	} else {
		r.Metrics = e2e
	}
	st := commdb.GraphStatsOf(g)
	kwNodes := map[string]int{}
	for _, p := range boostedProbes(spec.boost) {
		for _, w := range p.Words {
			kwNodes[w] = len(keywordNodes(g, w))
		}
	}
	r.info["inputs"] = map[string]any{
		"tuples": tuples, "nodes": st.Nodes, "edges": st.Edges,
		"keyword_nodes":          kwNodes,
		"queries":                queries,
		"repeated_keyword_share": float64(repeated) / math.Max(1, float64(sumValues(kwUses))),
		"abandoned_share":        float64(abandoned) / float64(r.Attempted),
	}
	r.info["samples"] = map[string]int{"topk": len(topkCPU), "emissions": len(delayCPU), "setup": len(setupCPU), "apply": len(applyCPU)}
	r.info["p90"] = map[string]any{"topk_cpu_ms.p90": orNil(topkCPU.p90()), "request_cpu_ms.p90": orNil(reqCPU.p90())}
	r.info["wall_reference"] = map[string]float64{
		"setup_s": setupWall.p50(), "first_ms.p50": firstWall.p50(), "topk_ms.p50": topkWall.p50(),
		"request_ms.p50": reqWall.p50(), "apply_ms.p50": applyWall.p50(),
	}
	return r, nil
}

func sumValues(m map[string]int) int {
	t := 0
	for _, v := range m {
		t += v
	}
	return t
}

// abandonOnce is the abandoned query: COMM-k on the Fig. 4 graph whose
// context is canceled after the first two communities. It fails when
// the iterator yields another community after the cancel or reports
// anything but context.Canceled. The pause before the cancel lets the
// pipeline's workers finish their lookahead, so the outcome does not
// depend on scheduling.
func abandonOnce(s *commdb.Searcher) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it, err := s.TopKCtx(ctx, commdb.Query{Keywords: []string{"a", "b", "c"}, Rmax: 8})
	if err != nil {
		return err
	}
	defer it.Close()
	for i := 0; i < 2; i++ {
		if _, ok := it.Next(); !ok {
			return fmt.Errorf("community %d missing before the cancel: %v", i+1, it.Err())
		}
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	if r, ok := it.Next(); ok {
		return fmt.Errorf("community %v yielded after the cancel", r.Core)
	}
	if err := it.Err(); !errors.Is(err, context.Canceled) {
		return fmt.Errorf("Err() = %v after the cancel, want context.Canceled", err)
	}
	return nil
}

// applyRebuild applies one seeded mutation batch to db and times what
// the root API needs to serve it: the root API has no incremental path,
// so the graph and searcher are built again.
func applyRebuild(db *relational.Database, opts []commdb.Option, seed int64) (time.Duration, time.Duration, error) {
	if _, err := datagen.Mutations(db, datagen.MutationParams{N: applyOps, Seed: seed}); err != nil {
		return 0, 0, err
	}
	_, _, c, w, err := setup(db, opts)
	return c, w, err
}

// checkAnswer verifies one answer against the reference, outside the
// timed section.
func checkAnswer(r *run, chk *checker, s *commdb.Searcher, q inQuery, t opTimes, centers int) {
	comms := t.comms
	if !q.all {
		for i := 1; i < len(comms); i++ {
			// Equal costs summed in another order may differ in the last
			// bits; only a drop beyond rounding breaks the order.
			if comms[i].Cost < comms[i-1].Cost && !sameCost(comms[i].Cost, comms[i-1].Cost) {
				r.fail("%v: COMM-k cost %v at rank %d follows %v", q, comms[i].Cost, i+1, comms[i-1].Cost)
				return
			}
		}
		best, ok := chk.bestCost(q.kws, q.rmax)
		switch {
		case ok != (len(comms) > 0):
			r.fail("%v: reference finds a community: %v, program returned %d", q, ok, len(comms))
		case ok && !sameCost(best, comms[0].Cost):
			r.fail("%v: first COMM-k cost %v, reference minimum %v", q, comms[0].Cost, best)
		}
	} else {
		seen := map[string]bool{}
		for _, c := range comms {
			if seen[c.Core.Key()] {
				r.fail("%v: COMM-all emitted core %v twice", q, c.Core)
				return
			}
			seen[c.Core.Key()] = true
		}
		if t.exhausted && len(comms) > 0 {
			k := min(len(comms), 50)
			costs := make([]float64, len(comms))
			for i, c := range comms {
				costs[i] = c.Cost
			}
			sort.Float64s(costs)
			kq := q
			kq.all, kq.k = false, k
			kt, err := runOne(s, kq)
			if err != nil || len(kt.comms) != k {
				r.fail("%v: COMM-k for the exhausted COMM-all: %d results, %v", q, len(kt.comms), err)
				return
			}
			for i, c := range kt.comms {
				if !sameCost(c.Cost, costs[i]) {
					r.fail("%v: COMM-all's cost %d is %v, COMM-k's %v", q, i+1, costs[i], c.Cost)
					return
				}
			}
		}
	}
	a := chk.forQuery(q.rmax)
	for i := 0; i < len(comms) && i < centers; i++ {
		if err := a.centers(comms[i]); err != nil {
			r.fail("%v: %v", q, err)
			return
		}
	}
}

// compareAnswers checks that other answers q exactly as got.
func compareAnswers(r *run, what string, q inQuery, got []*commdb.Community, other *commdb.Searcher) {
	t, err := runOne(other, q)
	if err != nil {
		r.fail("%s: %v: %v", what, q, err)
		return
	}
	if d := diffCommunities(got, t.comms); d != "" {
		r.fail("%s: %v: %s", what, q, d)
	}
}

func diffCommunities(a, b []*commdb.Community) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d communities vs %d", len(a), len(b))
	}
	for i := range a {
		if x, y := communityString(a[i]), communityString(b[i]); x != y {
			return fmt.Sprintf("rank %d differs: %s vs %s", i+1, x, y)
		}
	}
	return ""
}

func communityString(c *commdb.Community) string {
	var b strings.Builder
	b.WriteString(strconv.FormatFloat(c.Cost, 'g', -1, 64))
	fmt.Fprintf(&b, "|%v|%v|%v|%v", c.Core, c.Cnodes, c.Nodes, c.Edges)
	return b.String()
}
