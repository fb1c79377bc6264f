package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"commdb"
	"commdb/internal/datagen"
	"commdb/internal/delta"
	"commdb/internal/server"
	"commdb/internal/snapshot"
)

// live drives the commserve binary built from the tree, in delta mode,
// as a child process; every CPU figure is the child's own CPU clock.

const (
	liveAuthors = 5000
	// liveBatchOps mutation ops are appended per round.
	liveBatchOps = 10
	// liveMaxBatches bounds the pre-generated op stream; a run that
	// uses it up stops early.
	liveMaxBatches = 400
	// liveRequests requests follow each batch: every third a stream of
	// at most paperAllCap communities, drawn uniformly from liveStreams
	// queries (streams are never cached), the others top-k requests for
	// a page of livePage communities, drawn from liveTopKs queries by a
	// plain Zipf law, P(rank) ∝ (1+rank)^-liveZipfS. A request's CPU
	// grows with its k, so one page size keeps the median off the slope
	// a spread of k would put it on. Popularity is reshuffled
	// every epoch, so the misses sample the whole pool rather than the
	// same few hot queries; the repeats within an epoch are what the
	// result cache can serve (README.md gives the measured hit share).
	liveRequests = 30
	liveTopKs    = 200
	liveStreams  = 300
	livePage     = 10
	liveZipfS    = 1.1
	liveDebounce = "20ms"
	// statszPoll is how often the client looks for the new epoch after
	// an append; the server pays for each look, so it stays coarse.
	statszPoll = 20 * time.Millisecond
)

type poolQuery struct {
	kws    []string
	rmax   float64
	k      int
	stream bool
}

func (q poolQuery) body() []byte {
	req := server.SearchRequest{Keywords: q.kws, Rmax: q.rmax, K: q.k}
	if q.stream {
		req.K = 0
		req.Limits.MaxResults = paperAllCap
	}
	b, _ := json.Marshal(req) // plain struct: cannot fail
	return b
}

// livePoolQueries draws n distinct queries of one kind.
func livePoolQueries(rng *rand.Rand, n int, stream bool) []poolQuery {
	probes := boostedProbes(paperBoost)
	seen := map[string]bool{}
	var out []poolQuery
	for len(out) < n {
		p := probes[rng.Intn(len(probes))]
		l := 2 + rng.Intn(3)
		perm := rng.Perm(len(p.Words))[:l]
		kws := make([]string, l)
		for i, j := range perm {
			kws[i] = p.Words[j]
		}
		q := poolQuery{kws: kws, rmax: float64(400+rng.Intn(401)) / 100, k: livePage, stream: stream}
		if stream {
			q.k = paperAllCap
		}
		key := fmt.Sprint(q)
		if !seen[key] {
			seen[key] = true
			out = append(out, q)
		}
	}
	return out
}

// child is one running commserve.
type child struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
	err  error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// adminToken authorizes the one admin call the benchmark makes: the
// heap profile that forces a garbage collection before memory is read.
const adminToken = "perfbench"

// boot starts commserve and waits until it answers /healthz.
func boot(bin, dir, dump, mlog string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "commserve.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-db", dump, "-mutation-log", mlog, "-rmax-max", strconv.Itoa(indexR),
		"-delta-debounce", liveDebounce, "-pprof", "-addr", addr)
	cmd.Env = append(os.Environ(), "COMMSERVE_ADMIN_TOKEN="+adminToken)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	deadline := time.Now().Add(120 * time.Second)
	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("commserve exited during boot: %v (log in %s)", c.err, logf.Name())
		default:
		}
		if resp, err := http.Get(c.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("commserve did not become healthy within 120s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (c *child) cpu() time.Duration {
	d, err := childCPU(c.cmd.Process.Pid)
	if err != nil {
		panic(fmt.Sprintf("reading commserve's CPU clock: %v", err))
	}
	return d
}

// stop ends the server and waits for it to exit.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-c.done:
	case <-time.After(15 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
}

func (c *child) getJSON(path string, v any) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// heapAfterGC is the server's Go heap in use after a forced collection,
// in MB: a heap profile with gc=1 collects first, then /debug/memz
// reports the runtime's own figure.
func (c *child) heapAfterGC() (float64, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/debug/pprof/heap?gc=1", nil)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+adminToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // the profile itself is not needed
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("forcing a GC through /debug/pprof/heap: %s", resp.Status)
	}
	var memz struct {
		Runtime server.RuntimeMemory `json:"runtime"`
	}
	if err := c.getJSON("/debug/memz", &memz); err != nil {
		return 0, err
	}
	return float64(memz.Runtime.HeapAllocBytes) / (1 << 20), nil
}

// statsz is the part of /statsz the benchmark reads.
type statsz struct {
	Epochs *struct {
		Epoch   int64            `json:"epoch"`
		Reloads map[string]int64 `json:"reloads"`
	} `json:"epochs"`
	Deltas *delta.Stats `json:"deltas"`
}

func (c *child) epoch() (statsz, error) {
	var s statsz
	if err := c.getJSON("/statsz", &s); err != nil {
		return s, err
	}
	if s.Epochs == nil || s.Deltas == nil {
		return s, errors.New("/statsz has no epochs or deltas block: not in delta mode")
	}
	return s, nil
}

// reply is one request's outcome as the client saw it.
type reply struct {
	epoch   int64
	cached  bool
	records []server.CommunityRecord
	first   time.Duration // server CPU to the first streamed record
	cpu     time.Duration // server CPU for the whole request
	wall    time.Duration // client wall clock, for reference
}

func (c *child) request(q poolQuery) (reply, error) {
	path := "/v1/search/topk"
	if q.stream {
		path = "/v1/search/all"
	}
	var rp reply
	c0, w0 := c.cpu(), time.Now()
	resp, err := http.Post(c.base+path, "application/json", bytes.NewReader(q.body()))
	if err != nil {
		return rp, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return rp, fmt.Errorf("%s: %s %s", path, resp.Status, bytes.TrimSpace(b))
	}
	if !q.stream {
		var tr server.TopKResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			return rp, err
		}
		rp.cpu, rp.wall = c.cpu()-c0, time.Since(w0)
		rp.epoch, rp.cached, rp.records = tr.Epoch, tr.Cached, tr.Results
		return rp, nil
	}
	br := bufio.NewReader(resp.Body)
	sawTrailer := false
	for {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var kind struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(line, &kind); err != nil {
				return rp, fmt.Errorf("stream record: %w", err)
			}
			switch kind.Type {
			case server.RecordCommunity:
				if len(rp.records) == 0 {
					rp.first = c.cpu() - c0
				}
				var rec server.CommunityRecord
				if err := json.Unmarshal(line, &rec); err != nil {
					return rp, err
				}
				rp.records = append(rp.records, rec)
			case server.RecordTrailer:
				var t server.Trailer
				if err := json.Unmarshal(line, &t); err != nil {
					return rp, err
				}
				if t.Count != len(rp.records) {
					return rp, fmt.Errorf("trailer counts %d records, stream had %d", t.Count, len(rp.records))
				}
				rp.epoch, sawTrailer = t.Epoch, true
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return rp, err
		}
	}
	rp.cpu, rp.wall = c.cpu()-c0, time.Since(w0)
	if !sawTrailer {
		return rp, errors.New("stream ended without a trailer")
	}
	return rp, nil
}

func runLive(o options) (*run, error) {
	r := newRun()
	// run.sh builds commserve here, from the same checkout.
	bin := filepath.Join(".bench_build", "commserve")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("commserve binary: %w (run.sh builds it)", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	db, err := genDBLP(liveAuthors, paperBoost, o.seed)
	if err != nil {
		return nil, err
	}
	dump := filepath.Join(dir, "base.ndjson")
	var buf bytes.Buffer
	if err := delta.DumpDatabase(&buf, db); err != nil {
		return nil, err
	}
	if err := os.WriteFile(dump, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	tuples := db.NumTuples()
	ops, err := datagen.Mutations(db, datagen.MutationParams{N: liveMaxBatches * liveBatchOps, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	topks := livePoolQueries(rng, liveTopKs, false)
	streams := livePoolQueries(rng, liveStreams, true)
	zipf := rand.NewZipf(rng, liveZipfS, 1, uint64(len(topks)-1))

	var setupCPU, setupWall samples
	var srv *child
	for i := 0; i < setupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		mlog := filepath.Join(dir, fmt.Sprintf("mutations-%d.log", i))
		if err := os.WriteFile(mlog, nil, 0o644); err != nil {
			return nil, err
		}
		w0 := time.Now()
		if srv, err = boot(bin, dir, dump, mlog); err != nil {
			return nil, err
		}
		setupCPU.add(srv.cpu().Seconds())
		setupWall.add(time.Since(w0).Seconds())
	}
	defer srv.stop()
	mlog := filepath.Join(dir, fmt.Sprintf("mutations-%d.log", setupReps-1))
	lw, err := delta.OpenLog(mlog)
	if err != nil {
		return nil, err
	}
	defer lw.Close()

	var applyCPU, reqCPU, topkCPU, firstCPU, delayCPU, hitCPU, missCPU samples
	var applyWall, reqWall samples
	var applyMS, toGraphMS, repairMS, remapMS, mergeMS, publishMS, dirtyTerms samples
	hits, lookups, requests, stale := 0, 0, 0, 0
	st, err := srv.epoch()
	if err != nil {
		return nil, err
	}
	// boot is the epoch that serves the dump; every batch publishes the
	// next epoch id, so epoch e holds the first e-boot batches.
	boot := st.Epochs.Epoch
	serving, newest := boot, boot
	rollbacks := st.Epochs.Reloads[snapshot.OutcomeRolledBack]
	batches, rolledBack := 0, 0
	streamStart := srv.cpu()
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for b := 0; b == 0 || time.Now().Before(deadline); b++ {
		if (b+1)*liveBatchOps > len(ops) {
			fmt.Fprintln(os.Stderr, "perfbench: live: mutation stream used up; stopping early")
			break
		}
		batch := ops[b*liveBatchOps : (b+1)*liveBatchOps]
		r.Attempted++
		c0, w0 := srv.cpu(), time.Now()
		if err := lw.Append(batch...); err != nil {
			return nil, err
		}
		waitUntil := time.Now().Add(60 * time.Second)
		for {
			time.Sleep(statszPoll)
			if st, err = srv.epoch(); err != nil {
				return nil, err
			}
			if st.Epochs.Epoch > newest {
				break
			}
			if time.Now().After(waitUntil) {
				return nil, fmt.Errorf("batch %d: no new epoch within 60s (newest %d, serving %d)", b, newest, st.Epochs.Epoch)
			}
		}
		applyCPU.add(ms(srv.cpu() - c0))
		applyWall.add(ms(time.Since(w0)))
		batches++
		if st.Epochs.Epoch != newest+1 {
			r.fail("batch %d: epoch went from %d to %d, want one reload per batch", b, newest, st.Epochs.Epoch)
		}
		// A rollback restores the epoch that served before this batch.
		before := serving
		newest, serving = st.Epochs.Epoch, st.Epochs.Epoch
		if lb := st.Deltas.LastBatch; lb != nil {
			applyMS.add(lb.ApplyMS)
			toGraphMS.add(lb.Stages["to_graph"])
			repairMS.add(lb.Stages["repair"])
			remapMS.add(lb.Stages["remap"])
			mergeMS.add(lb.Stages["merge"])
			dirtyTerms.add(float64(lb.DirtyTerms))
			publishMS.add(st.Deltas.LastPublishMS)
		}
		rank := rng.Perm(len(topks))
		for i := 0; i < liveRequests; i++ {
			var q poolQuery
			if i%3 == 2 {
				q = streams[rng.Intn(len(streams))]
			} else {
				q = topks[rank[zipf.Uint64()]]
			}
			r.Attempted++
			requests++
			rp, err := srv.request(q)
			if err != nil {
				r.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: live request %+v: %v\n", q, err)
				continue
			}
			// Replies come from the new epoch until a rollback, then from
			// the restored one.
			switch {
			case rp.epoch == serving:
			case rp.epoch == before && serving == newest:
				serving = before
			default:
				r.fail("request %+v answered from epoch %d while %d was serving", q, rp.epoch, serving)
			}
			if rp.epoch != newest {
				stale++
			}
			reqCPU.add(ms(rp.cpu))
			reqWall.add(ms(rp.wall))
			if q.stream {
				if len(rp.records) > 0 {
					firstCPU.add(ms(rp.first))
					// The later records of a stream are too cheap to time
					// one by one through the server's CPU clock, so the
					// stream's average delay is the sample.
					delayCPU.add(ms(rp.cpu) / float64(len(rp.records)))
				}
				continue
			}
			topkCPU.add(ms(rp.cpu))
			lookups++
			if rp.cached {
				hits++
				hitCPU.add(ms(rp.cpu))
			} else {
				missCPU.add(ms(rp.cpu))
			}
		}
		// The round outlasts the new epoch's probation, so by now the
		// batch is either committed or rolled back. A rolled-back batch
		// is a failed operation: its data stops serving until the next
		// batch publishes.
		if st, err = srv.epoch(); err != nil {
			return nil, err
		}
		switch n := st.Epochs.Reloads[snapshot.OutcomeRolledBack]; {
		case n == rollbacks && st.Epochs.Epoch == newest && serving == newest:
		case n == rollbacks+1 && st.Epochs.Epoch == before:
			r.Failed++
			rolledBack++
			if rolledBack == 1 {
				fmt.Fprintf(os.Stderr, "perfbench: live: batch %d: epoch %d rolled back to %d (counted failed; see README.md)\n", b, newest, before)
			}
			serving, rollbacks = before, n
		default:
			r.fail("batch %d: after the round epoch %d serves with %d rollbacks (newest %d, before %d, replies from %d, %d rollbacks earlier)",
				b, st.Epochs.Epoch, n, newest, before, serving, rollbacks)
			serving, rollbacks = st.Epochs.Epoch, n
		}
	}
	streamCPU := srv.cpu() - streamStart

	// The serving epoch's database, from scratch: the dump plus the ops
	// of every batch that epoch holds. With no rollback that is every
	// applied op.
	f, err := os.Open(dump)
	if err != nil {
		return nil, err
	}
	served, err := delta.LoadDatabase(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	for _, op := range ops[:int(serving-boot)*liveBatchOps] {
		if err := delta.Apply(served, op); err != nil {
			return nil, fmt.Errorf("replaying the applied ops: %w", err)
		}
	}
	fg, _, err := served.ToGraph()
	if err != nil {
		return nil, err
	}
	ref, err := commdb.Open(fg, commdb.WithIndex(indexR), commdb.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	var lay *layerKit
	if o.trace {
		if lay, err = newLayerKit(served, fg, true); err != nil {
			return nil, err
		}
	}
	for _, q := range append(topks, streams...) {
		rp, err := srv.request(q)
		if err != nil {
			r.fail("final pool query %+v: %v", q, err)
			continue
		}
		if rp.epoch != serving {
			r.fail("final pool query %+v answered from epoch %d while %d was serving", q, rp.epoch, serving)
		}
		// The server answers the normalized query: core positions follow
		// the sorted keywords.
		iq := inQuery{kws: commdb.Query{Keywords: q.kws}.Normalized().Keywords, rmax: q.rmax, k: q.k, all: q.stream}
		lay.collect()
		t, err := runOne(ref, iq)
		if err != nil {
			r.fail("reference for %+v: %v", q, err)
			continue
		}
		if d := diffRecords(rp.records, t.comms); d != "" {
			r.fail("final pool query %+v differs from a from-scratch Open of epoch %d's database: %s", q, serving, d)
		}
		if lay != nil {
			lay.trace(iq, t)
		}
	}

	if st, err = srv.epoch(); err != nil {
		return nil, err
	}
	heapMB, err := srv.heapAfterGC()
	if err != nil {
		return nil, err
	}

	e2e := metrics{}
	e2e.set("setup_s", "s", setupCPU.p50())
	e2e.set("mem_mb", "MB", heapMB)
	e2e.set("first_cpu_ms.p50", "ms", firstCPU.p50())
	e2e.set("topk_cpu_ms.p50", "ms", topkCPU.p50())
	e2e.set("all_delay_cpu_ms.p50", "ms", delayCPU.p50())
	e2e.set("queries_per_cpu_s", "1/s", float64(requests-r.Failed)/streamCPU.Seconds())
	e2e.set("apply_cpu_ms.p50", "ms", applyCPU.p50())
	e2e.set("request_cpu_ms.p50", "ms", reqCPU.p50())
	if lay != nil {
		m := r.Metrics
		if err := lay.report(m, r.info); err != nil {
			return nil, err
		}
		m.set("delta.apply_ms", "ms", applyMS.mean())
		m.set("delta.to_graph_ms", "ms", toGraphMS.mean())
		m.set("delta.repair_ms", "ms", repairMS.mean())
		m.set("delta.remap_ms", "ms", remapMS.mean())
		m.set("delta.merge_ms", "ms", mergeMS.mean())
		m.set("delta.publish_ms", "ms", publishMS.mean())
		m.set("delta.dirty_terms", "count", dirtyTerms.mean())
		m.set("server.cache_hit_ratio", "ratio", float64(hits)/float64(max(lookups, 1)))
		m.set("server.cache_lookups", "count", float64(lookups))
		m.set("server.hit_cpu_ms", "ms", hitCPU.mean())
		m.set("server.miss_cpu_ms", "ms", missCPU.mean())
		m.set("snapshot.reloads", "count", float64(st.Epochs.Reloads[snapshot.OutcomeSuccess]))
		m.set("snapshot.rollbacks", "count", float64(st.Epochs.Reloads[snapshot.OutcomeRolledBack]))
		r.info["traced_end_to_end"] = e2e
	} else {
		r.Metrics = e2e
	}
	if st.Deltas.PartialFallbacks > 0 {
		r.fail("%d batches fell back to a full build", st.Deltas.PartialFallbacks)
	}
	r.info["inputs"] = map[string]any{
		"tuples": tuples, "nodes": fg.NumNodes(), "edges": fg.NumEdges(),
		"batches": batches, "rolled_back_batches": rolledBack, "ops_per_batch": liveBatchOps,
		"pool": len(topks) + len(streams), "requests": requests, "stale_replies": stale,
		"served_epoch": serving, "newest_epoch": newest,
		"cache_hit_share": float64(hits) / float64(max(lookups, 1)),
	}
	r.info["samples"] = map[string]int{"apply": len(applyCPU), "request": len(reqCPU), "topk": len(topkCPU), "emissions": len(delayCPU), "setup": len(setupCPU)}
	r.info["p90"] = map[string]any{"topk_cpu_ms.p90": orNil(topkCPU.p90()), "request_cpu_ms.p90": orNil(reqCPU.p90())}
	r.info["wall_reference"] = map[string]float64{
		"setup_s": setupWall.p50(), "apply_ms.p50": applyWall.p50(), "request_ms.p50": reqWall.p50(),
	}
	return r, nil
}

// diffRecords compares wire records with the reference communities.
func diffRecords(recs []server.CommunityRecord, comms []*commdb.Community) string {
	if len(recs) != len(comms) {
		return fmt.Sprintf("%d records vs %d communities", len(recs), len(comms))
	}
	for i, rec := range recs {
		c := &commdb.Community{Cost: rec.Cost, Core: rec.Core, Cnodes: rec.Centers, Nodes: rec.Nodes}
		for _, e := range rec.Edges {
			c.Edges = append(c.Edges, commdb.EdgePair{From: e[0], To: e[1]})
		}
		if x, y := communityString(c), communityString(comms[i]); x != y {
			return fmt.Sprintf("rank %d: served %s, reference %s", i+1, x, y)
		}
	}
	return ""
}
