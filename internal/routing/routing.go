// Package routing holds the placement contract the in-process shard
// router (package reef) and the multi-node cluster router (reefcluster)
// must agree on forever: the user-placement hash and the replica set
// built on it. Both routers call this one canonical implementation so
// the schemes cannot drift apart.
package routing

// UserSlot maps a user identity to one of n slots with FNV-1a. The
// in-process router uses it to place a user's in-memory state on a
// shard, and a cluster routes the user to node UserSlot(user, nodes).
// The node placement is a durable contract — a user's data lives on
// that node — so the hash must stay stable across releases (changing it
// is a data migration).
func UserSlot(user string, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// ReplicaSet maps a user to the ordered slot list that may hold the
// user's state: the primary (UserSlot — unchanged, so k=0 is exactly
// the single-copy layout and turning replication on needs no data
// migration) followed by the next k slots mod n. Consecutive slots are
// distinct by construction, so the set has min(1+k, n) members.
// Routers prefer the earliest routable member, which makes promotion
// (primary down → first replica serves) and fail-back (primary up →
// primary serves again) pure functions of node health.
func ReplicaSet(user string, n, k int) []int {
	if n <= 1 {
		return []int{0}
	}
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	primary := UserSlot(user, n)
	out := make([]int, 1+k)
	for i := range out {
		out[i] = (primary + i) % n
	}
	return out
}
