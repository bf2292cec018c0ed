package distsgd

// Test hooks for the external distsgd_test package, which can reach
// scenario.CanonicalResult (scenario imports this package, so only an
// external test may import it back).
var (
	RefCanonical = refCanonical
	RandomResult = randomResult
)
