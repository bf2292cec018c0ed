//go:build !amd64

package vec

// Non-amd64 platforms run only the portable pure-Go tier, which
// computes the avx2 tier's bits (see gram.go).
func availableTiers() []Tier { return []Tier{TierGo} }
