// Package community groups users into interest communities for Distributed
// Reef (paper §4, §5.2): peers with similar attention profiles exchange
// recommendations collaboratively, in the manner of I-SPY's group profiles,
// without shipping raw attention data to a central server.
package community

import (
	"math"
	"sort"
)

// Vector is a sparse term-weight profile (term -> weight).
type Vector map[string]float64

// FromCounts converts raw term counts into a weight vector.
func FromCounts(counts map[string]int) Vector {
	v := make(Vector, len(counts))
	for t, n := range counts {
		if n > 0 {
			v[t] = float64(n)
		}
	}
	return v
}

// Norm returns the Euclidean norm.
func (v Vector) Norm() float64 {
	var s float64
	for _, w := range v {
		s += w * w
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity of two vectors (0 when either is
// empty).
func Cosine(a, b Vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	// Iterate the smaller map.
	if len(b) < len(a) {
		a, b = b, a
	}
	var dot float64
	for t, w := range a {
		dot += w * b[t]
	}
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// Member is one peer's profile.
type Member struct {
	ID      string
	Profile Vector
}

// Community is a group of similar peers with a centroid profile.
type Community struct {
	// Members lists peer IDs, sorted.
	Members []string
	// Centroid is the mean profile.
	Centroid Vector
}

// BuildCommunities greedily clusters members: each member (in sorted ID
// order for determinism) joins the first community whose centroid
// similarity meets threshold, else founds a new one. Centroids update
// incrementally. This is the simple online scheme a peer swarm can run
// without global coordination.
func BuildCommunities(members []Member, threshold float64) []Community {
	sorted := make([]Member, len(members))
	copy(sorted, members)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	type building struct {
		ids []string
		sum Vector
		n   int
	}
	var groups []*building
	for _, m := range sorted {
		var best *building
		bestSim := threshold
		for _, g := range groups {
			centroid := scale(g.sum, 1/float64(g.n))
			if sim := Cosine(centroid, m.Profile); sim >= bestSim {
				best, bestSim = g, sim
			}
		}
		if best == nil {
			groups = append(groups, &building{
				ids: []string{m.ID},
				sum: clone(m.Profile),
				n:   1,
			})
			continue
		}
		best.ids = append(best.ids, m.ID)
		addInto(best.sum, m.Profile)
		best.n++
	}

	out := make([]Community, 0, len(groups))
	for _, g := range groups {
		sort.Strings(g.ids)
		out = append(out, Community{
			Members:  g.ids,
			Centroid: scale(g.sum, 1/float64(g.n)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Members[0] < out[j].Members[0] })
	return out
}

func clone(v Vector) Vector {
	out := make(Vector, len(v))
	for t, w := range v {
		out[t] = w
	}
	return out
}

func addInto(dst, src Vector) {
	for t, w := range src {
		dst[t] += w
	}
}

func scale(v Vector, f float64) Vector {
	out := make(Vector, len(v))
	for t, w := range v {
		out[t] = w * f
	}
	return out
}

// Exchange computes, for each member, the set of feed URLs its community
// peers know about that the member itself has not discovered — the
// collaborative recommendations exchanged within a community. known maps
// member ID to its discovered feed set.
func Exchange(comms []Community, known map[string]map[string]struct{}) map[string][]string {
	out := make(map[string][]string)
	for _, c := range comms {
		// Union of the community's knowledge.
		union := make(map[string]struct{})
		for _, id := range c.Members {
			for f := range known[id] {
				union[f] = struct{}{}
			}
		}
		for _, id := range c.Members {
			var fresh []string
			mine := known[id]
			for f := range union {
				if _, ok := mine[f]; !ok {
					fresh = append(fresh, f)
				}
			}
			sort.Strings(fresh)
			out[id] = fresh
		}
	}
	return out
}
