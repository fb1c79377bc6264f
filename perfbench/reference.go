package main

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"

	"commdb"
)

// The reference computation checks the program's answers without
// using its search code: a plain Dijkstra over Graph.InEdges gives
// dist(u → S), the length of the shortest directed path from u into a
// node set S, and the paper's definitions are evaluated directly on
// those distances. Node weights count as the program defines them: the
// weight of every node a path leaves on its way to S.

type refItem struct {
	d float64
	v commdb.NodeID
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].v < h[j].v
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// reverseDist returns dist(u → seeds) for every node u with a distance
// of at most rmax, as a map.
func reverseDist(g *commdb.Graph, seeds []commdb.NodeID, rmax float64) map[commdb.NodeID]float64 {
	dist := make(map[commdb.NodeID]float64)
	done := make(map[commdb.NodeID]bool)
	h := &refHeap{}
	for _, s := range seeds {
		if _, ok := dist[s]; !ok {
			dist[s] = 0
			heap.Push(h, refItem{0, s})
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		leave := g.NodeWeight(it.v)
		for _, e := range g.InEdges(it.v) {
			nd := it.d + e.Weight + leave
			if nd > rmax || done[e.To] {
				continue
			}
			if old, ok := dist[e.To]; ok && old <= nd {
				continue
			}
			dist[e.To] = nd
			heap.Push(h, refItem{nd, e.To})
		}
	}
	return dist
}

// keywordNodes lists the nodes carrying term, by scanning node terms.
func keywordNodes(g *commdb.Graph, term string) []commdb.NodeID {
	id, ok := g.Dict().ID(strings.ToLower(term))
	if !ok {
		return nil
	}
	var out []commdb.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		if g.HasTerm(commdb.NodeID(v), id) {
			out = append(out, commdb.NodeID(v))
		}
	}
	return out
}

// refCommunity is one community as the definitions give it: a core
// (one keyword node per keyword), its centers (nodes within rmax of
// every core node) and its cost (the least summed distance of a center
// to the core nodes).
type refCommunity struct {
	Core    []commdb.NodeID
	Centers []commdb.NodeID
	Cost    float64
}

// enumerateAll evaluates the definitions over every core of a small
// graph, ordered by cost and then core; it is exponential in the number
// of keywords and meant for the paper's worked examples.
func enumerateAll(g *commdb.Graph, keywords []string, rmax float64) []refCommunity {
	sets := make([][]commdb.NodeID, len(keywords))
	for i, kw := range keywords {
		sets[i] = keywordNodes(g, kw)
	}
	from := map[commdb.NodeID]map[commdb.NodeID]float64{}
	for _, set := range sets {
		for _, v := range set {
			if from[v] == nil {
				from[v] = reverseDist(g, []commdb.NodeID{v}, rmax)
			}
		}
	}
	var out []refCommunity
	core := make([]commdb.NodeID, len(sets))
	var rec func(i int)
	rec = func(i int) {
		if i == len(sets) {
			c := refCommunity{Core: append([]commdb.NodeID(nil), core...), Cost: math.Inf(1)}
			for u := 0; u < g.NumNodes(); u++ {
				sum, ok := 0.0, true
				for _, k := range core {
					d, in := from[k][commdb.NodeID(u)]
					if !in {
						ok = false
						break
					}
					sum += d
				}
				if ok {
					c.Centers = append(c.Centers, commdb.NodeID(u))
					c.Cost = math.Min(c.Cost, sum)
				}
			}
			if len(c.Centers) > 0 {
				out = append(out, c)
			}
			return
		}
		for _, v := range sets[i] {
			core[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost < out[j].Cost
		}
		return fmt.Sprint(out[i].Core) < fmt.Sprint(out[j].Core)
	})
	return out
}

// checker verifies answers on one graph, caching per-keyword distances
// at the largest radius the workload queries (a shorter radius only
// truncates them).
type checker struct {
	g      *commdb.Graph
	rmax   float64
	kwDist map[string]map[commdb.NodeID]float64
}

func newChecker(g *commdb.Graph, rmax float64) *checker {
	return &checker{g: g, rmax: rmax, kwDist: map[string]map[commdb.NodeID]float64{}}
}

func (c *checker) keywordDist(kw string) map[commdb.NodeID]float64 {
	d, ok := c.kwDist[kw]
	if !ok {
		d = reverseDist(c.g, keywordNodes(c.g, kw), c.rmax)
		c.kwDist[kw] = d
	}
	return d
}

// bestCost is the least cost of any community: the minimum over nodes
// within rmax of every keyword set of the summed distances to the sets.
func (c *checker) bestCost(kws []string, rmax float64) (float64, bool) {
	ds := make([]map[commdb.NodeID]float64, len(kws))
	for i, kw := range kws {
		ds[i] = c.keywordDist(kw)
	}
	best, found := math.Inf(1), false
	for u, d0 := range ds[0] {
		if d0 > rmax {
			continue
		}
		sum, ok := d0, true
		for _, d := range ds[1:] {
			du, in := d[u]
			if !in || du > rmax {
				ok = false
				break
			}
			sum += du
		}
		if ok && sum < best {
			best, found = sum, true
		}
	}
	return best, found
}

func sameCost(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(a)) }

// answerCheck holds the per-query reverse balls of core nodes, which
// the communities of one query share.
type answerCheck struct {
	c     *checker
	rmax  float64
	balls map[commdb.NodeID]map[commdb.NodeID]float64
}

func (c *checker) forQuery(rmax float64) *answerCheck {
	return &answerCheck{c: c, rmax: rmax, balls: map[commdb.NodeID]map[commdb.NodeID]float64{}}
}

// centers verifies that every center of r lies within rmax of each of
// its core nodes, and that the cost is a center's summed distance.
func (a *answerCheck) centers(r *commdb.Community) error {
	if len(r.Cnodes) == 0 {
		return fmt.Errorf("community %v has no centers", r.Core)
	}
	best := math.Inf(1)
	for _, u := range r.Cnodes {
		sum := 0.0
		for _, k := range r.Core {
			ball, ok := a.balls[k]
			if !ok {
				ball = reverseDist(a.c.g, []commdb.NodeID{k}, a.rmax)
				a.balls[k] = ball
			}
			d, in := ball[u]
			if !in {
				return fmt.Errorf("community %v: center %d is not within rmax %v of core node %d", r.Core, u, a.rmax, k)
			}
			sum += d
		}
		best = math.Min(best, sum)
	}
	if !sameCost(best, r.Cost) {
		return fmt.Errorf("community %v: cost %v, but its best center sums to %v", r.Core, r.Cost, best)
	}
	return nil
}
