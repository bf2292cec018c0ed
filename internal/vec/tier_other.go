//go:build !amd64

package vec

// Non-amd64 platforms run only the portable pure-Go tier, amd64's
// "pair2" order, but a cell's bits are not yet fixed by the order alone
// (see tier.go; ROADMAP item 2).
func availableTiers() []Tier { return []Tier{TierGo} }
