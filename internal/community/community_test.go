package community

import (
	"math"
	"testing"
)

func TestCosine(t *testing.T) {
	a := Vector{"x": 1, "y": 1}
	b := Vector{"x": 1, "y": 1}
	if got := Cosine(a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical cosine = %v", got)
	}
	c := Vector{"z": 5}
	if got := Cosine(a, c); got != 0 {
		t.Errorf("orthogonal cosine = %v", got)
	}
	if got := Cosine(a, Vector{}); got != 0 {
		t.Errorf("empty cosine = %v", got)
	}
	// Symmetry.
	d := Vector{"x": 2, "q": 1}
	if math.Abs(Cosine(a, d)-Cosine(d, a)) > 1e-12 {
		t.Error("cosine not symmetric")
	}
	// Scale invariance.
	e := Vector{"x": 10, "y": 10}
	if got := Cosine(a, e); math.Abs(got-1) > 1e-12 {
		t.Errorf("scaled cosine = %v", got)
	}
}

func TestFromCounts(t *testing.T) {
	v := FromCounts(map[string]int{"a": 3, "b": 0, "c": -1})
	if len(v) != 1 || v["a"] != 3 {
		t.Errorf("FromCounts = %v", v)
	}
}

func TestBuildCommunitiesGroupsSimilar(t *testing.T) {
	members := []Member{
		{ID: "astro1", Profile: Vector{"quasar": 5, "telescope": 3}},
		{ID: "astro2", Profile: Vector{"quasar": 4, "redshift": 2}},
		{ID: "sports1", Profile: Vector{"football": 6, "goal": 2}},
		{ID: "sports2", Profile: Vector{"football": 3, "playoff": 4}},
	}
	comms := BuildCommunities(members, 0.3)
	if len(comms) != 2 {
		t.Fatalf("communities = %d: %+v", len(comms), comms)
	}
	find := func(id string) int {
		for i, c := range comms {
			for _, m := range c.Members {
				if m == id {
					return i
				}
			}
		}
		return -1
	}
	if find("astro1") != find("astro2") {
		t.Error("astro users split")
	}
	if find("sports1") != find("sports2") {
		t.Error("sports users split")
	}
	if find("astro1") == find("sports1") {
		t.Error("astro and sports merged")
	}
}

func TestBuildCommunitiesHighThresholdSingletons(t *testing.T) {
	members := []Member{
		{ID: "a", Profile: Vector{"x": 1}},
		{ID: "b", Profile: Vector{"y": 1}},
	}
	comms := BuildCommunities(members, 0.99)
	if len(comms) != 2 {
		t.Fatalf("communities = %d, want singletons", len(comms))
	}
}

func TestBuildCommunitiesDeterministic(t *testing.T) {
	members := []Member{
		{ID: "c", Profile: Vector{"x": 1, "y": 2}},
		{ID: "a", Profile: Vector{"x": 2, "y": 1}},
		{ID: "b", Profile: Vector{"x": 1, "y": 1}},
	}
	c1 := BuildCommunities(members, 0.5)
	// Shuffle input order; output must be identical.
	shuffled := []Member{members[2], members[0], members[1]}
	c2 := BuildCommunities(shuffled, 0.5)
	if len(c1) != len(c2) {
		t.Fatal("community counts differ")
	}
	for i := range c1 {
		if len(c1[i].Members) != len(c2[i].Members) {
			t.Fatal("membership differs")
		}
		for j := range c1[i].Members {
			if c1[i].Members[j] != c2[i].Members[j] {
				t.Fatal("membership order differs")
			}
		}
	}
}

func TestBuildCommunitiesEmpty(t *testing.T) {
	if got := BuildCommunities(nil, 0.5); len(got) != 0 {
		t.Errorf("communities from nothing = %+v", got)
	}
}

func TestExchange(t *testing.T) {
	comms := []Community{
		{Members: []string{"a", "b"}},
		{Members: []string{"c"}},
	}
	known := map[string]map[string]struct{}{
		"a": {"http://f1.test/": {}, "http://f2.test/": {}},
		"b": {"http://f2.test/": {}, "http://f3.test/": {}},
		"c": {"http://f9.test/": {}},
	}
	got := Exchange(comms, known)
	if len(got["a"]) != 1 || got["a"][0] != "http://f3.test/" {
		t.Errorf("a receives %v", got["a"])
	}
	if len(got["b"]) != 1 || got["b"][0] != "http://f1.test/" {
		t.Errorf("b receives %v", got["b"])
	}
	if len(got["c"]) != 0 {
		t.Errorf("c receives %v (no peers)", got["c"])
	}
}

func TestExchangeUnknownMember(t *testing.T) {
	comms := []Community{{Members: []string{"a", "ghost"}}}
	known := map[string]map[string]struct{}{
		"a": {"http://f1.test/": {}},
	}
	got := Exchange(comms, known)
	if len(got["ghost"]) != 1 {
		t.Errorf("ghost receives %v", got["ghost"])
	}
}
