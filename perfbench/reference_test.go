package main

import (
	"testing"

	"commdb"
)

// TestReferencePaperTableI: on the Fig. 4 graph the reference yields
// exactly Table I — five communities of {a, b, c} at Rmax 8, with their
// costs and centers, in ranking order.
func TestReferencePaperTableI(t *testing.T) {
	g, ids := commdb.PaperExampleGraph()
	want := []struct {
		core    [3]int
		cost    float64
		centers []int
	}{
		{[3]int{4, 8, 6}, 7, []int{4, 7}},
		{[3]int{13, 8, 9}, 10, []int{9}},
		{[3]int{13, 8, 11}, 11, []int{11, 12}},
		{[3]int{4, 2, 3}, 14, []int{1}},
		{[3]int{4, 2, 9}, 15, []int{5}},
	}
	got := enumerateAll(g, []string{"a", "b", "c"}, 8)
	if len(got) != len(want) {
		t.Fatalf("got %d communities, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		r := got[i]
		for j, p := range w.core {
			if r.Core[j] != ids[p] {
				t.Errorf("rank %d: core %v, want paper nodes %v", i+1, r.Core, w.core)
				break
			}
		}
		if r.Cost != w.cost {
			t.Errorf("rank %d: cost %v, want %v", i+1, r.Cost, w.cost)
		}
		if len(r.Centers) != len(w.centers) {
			t.Errorf("rank %d: centers %v, want paper nodes %v", i+1, r.Centers, w.centers)
			continue
		}
		for j, p := range w.centers {
			if r.Centers[j] != ids[p] {
				t.Errorf("rank %d: centers %v, want paper nodes %v", i+1, r.Centers, w.centers)
				break
			}
		}
	}
	c := newChecker(g, 8)
	if best, ok := c.bestCost([]string{"a", "b", "c"}, 8); !ok || best != 7 {
		t.Errorf("bestCost = %v, %v; want 7", best, ok)
	}
}

// TestReferenceIntro: the introduction's query {kate, smith} at radius
// 6 has exactly the two communities of Fig. 3.
func TestReferenceIntro(t *testing.T) {
	g, ids := commdb.IntroExampleGraph()
	got := enumerateAll(g, []string{"kate", "smith"}, 6)
	if len(got) != 2 {
		t.Fatalf("got %d communities, want 2: %+v", len(got), got)
	}
	kj, kjim := got[0], got[1]
	if kj.Core[0] != ids["kate"] || kj.Core[1] != ids["john"] || kj.Cost != 3 || len(kj.Centers) != 2 {
		t.Errorf("first community %+v, want core [kate john], cost 3, centers paper1 and paper2", kj)
	}
	if kjim.Core[0] != ids["kate"] || kjim.Core[1] != ids["jim"] || kjim.Cost != 4 ||
		len(kjim.Centers) != 1 || kjim.Centers[0] != ids["paper2"] {
		t.Errorf("second community %+v, want core [kate jim], cost 4, center paper2", kjim)
	}
}

// TestCheckerAcceptsProgramAnswers runs the program on Fig. 4 and
// checks its communities with the same code the benchmark uses.
func TestCheckerAcceptsProgramAnswers(t *testing.T) {
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g, commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.TopK(commdb.Query{Keywords: []string{"a", "b", "c"}, Rmax: 8})
	if err != nil {
		t.Fatal(err)
	}
	comms, err := it.Collect(0)
	if err != nil {
		t.Fatal(err)
	}
	a := newChecker(g, 8).forQuery(8)
	for _, r := range comms {
		if err := a.centers(r); err != nil {
			t.Error(err)
		}
	}
	if len(comms) != 5 {
		t.Errorf("program found %d communities, want 5", len(comms))
	}
}
