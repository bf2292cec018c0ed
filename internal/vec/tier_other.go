//go:build !amd64

package vec

// Non-amd64 platforms run only the portable pure-Go tier. Its "pair2"
// order is amd64's SSE2 tier's, but a cell's bits are not yet fixed by
// the order alone (see tier.go; ROADMAP item 1).
func availableTiers() []Tier { return []Tier{TierGo} }
