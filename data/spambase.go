package data

import (
	"fmt"

	"krum/internal/vec"
)

// SyntheticSpambase mirrors the shape of the UCI Spambase corpus the
// paper's spam-filtering experiment uses: 57 real-valued features
// (54 word/character frequencies plus 3 capital-run-length statistics)
// and a binary spam/ham label with ≈39% spam prevalence. Features are
// generated from a planted two-class model with class-conditional
// frequency profiles and correlated "burstiness", so a logistic
// regression reaches high-but-imperfect accuracy — the regime the
// paper's Figure 4-style spam experiments operate in.
//
// Construct with NewSyntheticSpambase.
type SyntheticSpambase struct {
	dim       int
	spamRate  float64
	hamFreq   []float64 // mean frequency profile for ham
	spamFreq  []float64 // mean frequency profile for spam
	featNoise float64
}

// SpambaseDim is the UCI Spambase feature dimension.
const SpambaseDim = 57

// NewSyntheticSpambase builds the planted model deterministically from
// seed. spamRate is the class prior for the spam class; the UCI corpus
// has ≈0.394.
func NewSyntheticSpambase(spamRate float64, seed uint64) (*SyntheticSpambase, error) {
	if !(spamRate > 0 && spamRate < 1) {
		return nil, fmt.Errorf("spamRate %g outside (0, 1): %w", spamRate, ErrConfig)
	}
	rng := vec.NewRNG(seed)
	s := &SyntheticSpambase{
		dim:       SpambaseDim,
		spamRate:  spamRate,
		hamFreq:   make([]float64, SpambaseDim),
		spamFreq:  make([]float64, SpambaseDim),
		featNoise: 0.35,
	}
	// Word/char frequency profiles: most words are rare in both classes;
	// a subset is strongly class-indicative in either direction
	// (think "free", "money" vs "george", "meeting").
	for j := 0; j < 54; j++ {
		base := 0.1 + 0.4*rng.Float64()
		s.hamFreq[j] = base
		s.spamFreq[j] = base
		switch {
		case j%5 == 0: // spam-indicative
			s.spamFreq[j] += 0.5 + 0.8*rng.Float64()
		case j%7 == 0: // ham-indicative
			s.hamFreq[j] += 0.5 + 0.8*rng.Float64()
		}
	}
	// Capital-run-length statistics: heavier-tailed and larger for spam.
	for j := 54; j < 57; j++ {
		s.hamFreq[j] = 1.5
		s.spamFreq[j] = 3.5
	}
	return s, nil
}

// Dim implements Dataset.
func (s *SyntheticSpambase) Dim() int { return s.dim }

// OutDim implements Dataset (binary scalar target).
func (s *SyntheticSpambase) OutDim() int { return 1 }

// Sample implements Dataset: a batch of one row.
func (s *SyntheticSpambase) Sample(rng *vec.RNG, x, y []float64) {
	s.fillBatch(rng, oneRow(x), oneRow(y))
}

// feature is feature j of a message with the given class profile and
// verbosity, whose noise variate is z.
func (s *SyntheticSpambase) feature(j int, profile []float64, verbosity, z float64) float64 {
	v := profile[j]*verbosity + s.featNoise*z
	if v < 0 {
		v = 0
	}
	if j >= 54 {
		// Run lengths are heavy tailed: square the positive part.
		v = v * v / 2
	}
	return v
}

// fillBatch implements batchFiller: each row's class (spam with
// probability spamRate) and its "verbosity", a per-message factor that
// correlates all frequencies as document length does in real corpora,
// then its 57 normals. 57 is odd, so every other row starts on the sin
// variate of the pair the row before began.
func (s *SyntheticSpambase) fillBatch(rng *vec.RNG, x, y *vec.Dense) {
	sc := batchScratches.Get().(*batchScratch)
	defer batchScratches.Put(sc)
	verbosity := sc.float64s(x.Rows)
	sc.run.Begin(rng)
	for i := range verbosity {
		spam := rng.Float64() < s.spamRate
		y.Row(i)[0] = 0
		if spam {
			y.Row(i)[0] = 1
		}
		verbosity[i] = 0.6 + 0.8*rng.Float64()
		sc.run.Draw(s.dim)
	}
	sc.run.End(x.Data)
	for i, vb := range verbosity {
		profile := s.hamFreq
		if y.Row(i)[0] == 1 {
			profile = s.spamFreq
		}
		row := x.Row(i)
		for j, z := range row {
			row[j] = s.feature(j, profile, vb, z)
		}
	}
}
