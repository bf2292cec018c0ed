package vec

import "testing"

func TestFloatPoolRoundTrip(t *testing.T) {
	s := GetFloats(16)
	if len(s) != 16 {
		t.Fatalf("len = %d, want 16", len(s))
	}
	for i := range s {
		s[i] = float64(i)
	}
	PutFloats(s)
	s2 := GetFloats(8)
	if len(s2) != 8 {
		t.Fatalf("len = %d, want 8", len(s2))
	}
	PutFloats(s2)
	PutFloats(nil) // must not panic
}
