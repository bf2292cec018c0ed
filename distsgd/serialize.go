// Stable JSON serialization for Result — the wire and at-rest format
// used by the scenario result store (scenario/store) and the
// krum-scenariod service.
//
// The encoding is designed around two constraints plain encoding/json
// cannot meet:
//
//  1. Training outcomes legitimately contain non-finite floats —
//     FinalTestAccuracy/FinalTestLoss use a NaN sentinel for "never
//     evaluated", and diverged runs (the EXPECTED outcome for linear
//     rules under attack, Lemma 3.1) carry NaN/±Inf in FinalParams and
//     the round statistics. JSON has no literal for those, so a
//     non-finite float is written as one of the quoted strings "NaN",
//     "+Inf" and "-Inf", and FinalParams as base64 of its raw
//     little-endian IEEE-754 bits.
//  2. The result store promises cache hits byte-identical to a cold
//     run, so the encoding must round-trip exactly: finite floats use
//     Go's shortest-round-trip formatting, and FinalParams' bit-level
//     encoding preserves even NaN payloads and signed zeros. For any
//     Result r, Marshal(Unmarshal(Marshal(r))) == Marshal(r).
//
// # Grammar
//
// AppendJSON writes the bytes encoding/json writes for the reflective
// reference codec in serialize_ref_test.go, which the tests hold it
// to: no insignificant whitespace, the fields always in this order, a
// bracketed field present only when it is set (true, non-zero,
// non-empty):
//
//	result = {"history":HISTORY,"final_params_b64":"BASE64"
//	          [,"diverged":true][,"diverged_round":INT]
//	          [,"byzantine_selected_rounds":INT][,"selection_tracked_rounds":INT]
//	          ,"final_test_accuracy":FLOAT,"final_test_loss":FLOAT[,"kernel":STRING]}
//	HISTORY = null | [] | [round(,round)*]
//	round   = {"round":INT,"train_loss":FLOAT,"update_norm":FLOAT,"learning_rate":FLOAT
//	          [,"byzantine_chosen":true][,"evaluated":true]
//	          ,"test_accuracy":FLOAT,"test_loss":FLOAT}
//	FLOAT   = "NaN" | "+Inf" | "-Inf" | a JSON number: strconv's shortest
//	          'f' form, or its 'e' form below 1e-6 and from 1e21 with
//	          the exponent's leading zero dropped (1e-7, not 1e-07)
//	BASE64  = std base64, padded, of FinalParams' little-endian bits
//	          ("" for none: nil and empty FinalParams encode alike)
//	STRING  = a JSON string as encoding/json escapes it (HTML-safe)
//
// UnmarshalJSON parses this grammar and nothing else: fields in this
// order, no whitespace, no unknown field. A number or string it
// accepts need not be the canonical spelling of its value; the
// canonical check (scenario.CanonicalResult) re-encodes and compares.
//
// The field set is part of the store's compatibility surface: any
// change to it (or to the semantics of a field) must be accompanied by
// a bump of store.Version so stale entries are recomputed, never
// served.
package distsgd

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// MarshalJSON implements json.Marshaler with AppendJSON's bytes.
func (r Result) MarshalJSON() ([]byte, error) {
	return r.AppendJSON(nil), nil
}

// AppendJSON appends r's stable encoding (see the file comment) to dst
// and returns the extended buffer. It allocates only to grow dst; given
// nil, it starts from one buffer of a typical encoded size.
func (r *Result) AppendJSON(dst []byte) []byte {
	if dst == nil {
		// A history entry runs 110–200 bytes; the parameters' share is exact.
		dst = make([]byte, 0, 160+160*len(r.History)+base64.StdEncoding.EncodedLen(8*len(r.FinalParams)))
	}
	dst = append(dst, `{"history":`...)
	if r.History == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.History {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = r.History[i].appendJSON(dst)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"final_params_b64":"`...)
	dst = appendFloatBits(dst, r.FinalParams)
	dst = append(dst, '"')
	if r.Diverged {
		dst = append(dst, `,"diverged":true`...)
	}
	dst = appendOptInt(dst, `,"diverged_round":`, r.DivergedRound)
	dst = appendOptInt(dst, `,"byzantine_selected_rounds":`, r.ByzantineSelectedRounds)
	dst = appendOptInt(dst, `,"selection_tracked_rounds":`, r.SelectionTrackedRounds)
	dst = append(dst, `,"final_test_accuracy":`...)
	dst = appendFloat(dst, r.FinalTestAccuracy)
	dst = append(dst, `,"final_test_loss":`...)
	dst = appendFloat(dst, r.FinalTestLoss)
	if r.Kernel != "" {
		dst = append(dst, `,"kernel":`...)
		dst = appendString(dst, r.Kernel)
	}
	return append(dst, '}')
}

// appendJSON appends one history entry's object.
func (s *RoundStats) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"round":`...)
	dst = strconv.AppendInt(dst, int64(s.Round), 10)
	dst = append(dst, `,"train_loss":`...)
	dst = appendFloat(dst, s.TrainLoss)
	dst = append(dst, `,"update_norm":`...)
	dst = appendFloat(dst, s.UpdateNorm)
	dst = append(dst, `,"learning_rate":`...)
	dst = appendFloat(dst, s.LearningRate)
	if s.ByzantineChosen {
		dst = append(dst, `,"byzantine_chosen":true`...)
	}
	if s.Evaluated {
		dst = append(dst, `,"evaluated":true`...)
	}
	dst = append(dst, `,"test_accuracy":`...)
	dst = appendFloat(dst, s.TestAccuracy)
	dst = append(dst, `,"test_loss":`...)
	dst = appendFloat(dst, s.TestLoss)
	return append(dst, '}')
}

// appendOptInt appends field and v unless v is zero (omitempty).
func appendOptInt(dst []byte, field string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, field...), int64(v), 10)
}

// appendFloat appends f as encoding/json's float64 encoder does, with
// the non-finite values quoted.
func appendFloat(dst []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(dst, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(dst, `"-Inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-07 → e-7
		dst = dst[:n-1]
	}
	return dst
}

// floatChunk is how many floats appendFloatBits and floatBits
// stage at a time: 768 bytes, a multiple of both 8 and 3, so every
// chunk but the last is 1 024 base64 characters with no padding.
const floatChunk = 96

// appendFloatBits appends base64(little-endian IEEE-754 bits of v) —
// bit-exact, NaN payloads and signed zeros included.
func appendFloatBits(dst []byte, v []float64) []byte {
	n := base64.StdEncoding.EncodedLen(8 * len(v))
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	var buf [8 * floatChunk]byte
	for len(v) > 0 {
		k := min(len(v), floatChunk)
		for i, f := range v[:k] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
		}
		base64.StdEncoding.Encode(out, buf[:8*k])
		out = out[base64.StdEncoding.EncodedLen(8*k):]
		v = v[k:]
	}
	return dst[:len(dst)+n]
}

// appendString appends s as encoding/json writes a string. The kernel
// names this file carries are plain ASCII and are copied as they are;
// anything else goes through encoding/json itself.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte(s[i]) {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plainByte reports whether encoding/json writes c inside a string
// unescaped and unchanged: printable ASCII other than the quote, the
// backslash and the HTML-escaped <, > and &.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// errSyntax is the parser's one failure: the input is not in the
// grammar of the file comment.
var errSyntax = errors.New("not a stable-encoded distsgd.Result")

// UnmarshalJSON implements json.Unmarshaler. It accepts exactly the
// grammar of the file comment — fixed field order, no whitespace —
// and fails on anything else.
func (r *Result) UnmarshalJSON(b []byte) error {
	p := parser{b: b}
	var res Result
	p.lit(`{"history":`)
	if !p.opt("null") {
		p.lit("[")
		res.History = make([]RoundStats, 0, bytes.Count(p.b, []byte(`{"round":`))) // [] is not null
		if !p.opt("]") {
			for ok := true; ok && p.err == nil; ok = p.opt(",") {
				res.History = append(res.History, p.round())
			}
			p.lit("]")
		}
	}
	p.lit(`,"final_params_b64":`)
	res.FinalParams = p.floatBits()
	if p.opt(`,"diverged":`) {
		p.lit("true")
		res.Diverged = true
	}
	if p.opt(`,"diverged_round":`) {
		res.DivergedRound = p.int()
	}
	if p.opt(`,"byzantine_selected_rounds":`) {
		res.ByzantineSelectedRounds = p.int()
	}
	if p.opt(`,"selection_tracked_rounds":`) {
		res.SelectionTrackedRounds = p.int()
	}
	p.lit(`,"final_test_accuracy":`)
	res.FinalTestAccuracy = p.float()
	p.lit(`,"final_test_loss":`)
	res.FinalTestLoss = p.float()
	if p.opt(`,"kernel":`) {
		res.Kernel = p.string()
	}
	p.lit("}")
	if p.err == nil && len(p.b) > 0 {
		p.fail()
	}
	if p.err != nil {
		return p.err
	}
	*r = res
	return nil
}

// parser is a cursor over the unparsed rest of a stable encoding. The
// first failure sticks: every later step is a no-op returning zero.
type parser struct {
	b   []byte
	err error
}

// fail records a syntax error at the current position.
func (p *parser) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("%w: at %.24q", errSyntax, p.b)
	}
}

// opt consumes s if the input starts with it.
func (p *parser) opt(s string) bool {
	if p.err != nil || len(p.b) < len(s) || string(p.b[:len(s)]) != s {
		return false
	}
	p.b = p.b[len(s):]
	return true
}

// lit consumes s, which must come next.
func (p *parser) lit(s string) {
	if !p.opt(s) {
		p.fail()
	}
}

// round parses one history entry.
func (p *parser) round() RoundStats {
	var s RoundStats
	p.lit(`{"round":`)
	s.Round = p.int()
	p.lit(`,"train_loss":`)
	s.TrainLoss = p.float()
	p.lit(`,"update_norm":`)
	s.UpdateNorm = p.float()
	p.lit(`,"learning_rate":`)
	s.LearningRate = p.float()
	if p.opt(`,"byzantine_chosen":`) {
		p.lit("true")
		s.ByzantineChosen = true
	}
	if p.opt(`,"evaluated":`) {
		p.lit("true")
		s.Evaluated = true
	}
	p.lit(`,"test_accuracy":`)
	s.TestAccuracy = p.float()
	p.lit(`,"test_loss":`)
	s.TestLoss = p.float()
	p.lit("}")
	return s
}

// number consumes a JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its bytes; integral restricts it to the first group.
func (p *parser) number(integral bool) []byte {
	if p.err != nil {
		return nil
	}
	b, i := p.b, 0
	digits := func() bool {
		j := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	ok := true
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		ok = digits()
	}
	if ok && !integral && i < len(b) && b[i] == '.' {
		i++
		ok = digits()
	}
	if ok && !integral && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		ok = digits()
	}
	if !ok {
		p.fail()
		return nil
	}
	p.b = b[i:]
	return b[:i]
}

// int parses an integer field.
func (p *parser) int() int {
	tok := p.number(true)
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, 0)
	if err != nil {
		p.err = fmt.Errorf("%w: %w", errSyntax, err)
	}
	return int(v)
}

// float parses a FLOAT.
func (p *parser) float() float64 {
	switch {
	case p.opt(`"NaN"`):
		return math.NaN()
	case p.opt(`"+Inf"`):
		return math.Inf(1)
	case p.opt(`"-Inf"`):
		return math.Inf(-1)
	}
	tok := p.number(false)
	if p.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		p.err = fmt.Errorf("%w: %w", errSyntax, err)
	}
	return v
}

// floatBits parses the quoted BASE64 of FinalParams; "" is nil.
func (p *parser) floatBits() []float64 {
	p.lit(`"`)
	end := bytes.IndexByte(p.b, '"')
	if p.err != nil || end < 0 {
		p.fail()
		return nil
	}
	src := p.b[:end]
	// Padding may only end the text, so that each chunk below but the
	// last is whole base64 with nothing after it, and the line breaks
	// Decode would skip may not appear at all; Decode checks the rest.
	if pad := bytes.IndexByte(src, '='); pad >= 0 && pad < len(src)-2 || bytes.ContainsAny(src, "\r\n") {
		p.fail()
		return nil
	}
	var v []float64
	if len(src) > 0 {
		v = make([]float64, 0, len(src)/4*3/8)
	}
	var buf [8 * floatChunk]byte
	for chunk := base64.StdEncoding.EncodedLen(len(buf)); len(src) > 0; {
		k := min(len(src), chunk)
		m, err := base64.StdEncoding.Decode(buf[:], src[:k])
		if err == nil && m%8 != 0 {
			err = errors.New("not a whole number of float64s")
		}
		if err != nil {
			p.err = fmt.Errorf("%w: final_params_b64: %w", errSyntax, err)
			return nil
		}
		for i := 0; i < m; i += 8 {
			v = append(v, math.Float64frombits(binary.LittleEndian.Uint64(buf[i:])))
		}
		src = src[k:]
	}
	p.b = p.b[end+1:]
	return v
}

// string parses a JSON string. Plain ASCII is taken as it is (the
// kernel order without a copy); anything with an escape or a byte
// outside printable ASCII is decoded by encoding/json.
func (p *parser) string() string {
	if p.err != nil || len(p.b) == 0 || p.b[0] != '"' {
		p.fail()
		return ""
	}
	plain := true
	for i := 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot close the string
		case c == '"':
			tok := p.b[:i+1]
			p.b = p.b[i+1:]
			if plain {
				return internKernel(tok[1:i])
			}
			var s string
			if err := json.Unmarshal(tok, &s); err != nil {
				p.err = fmt.Errorf("%w: %w", errSyntax, err)
			}
			return s
		case c < 0x20 || c >= 0x7f:
			plain = false
		}
	}
	p.fail()
	return ""
}

// internKernel returns the kernel order name b spells, without
// allocating for the one order there is.
func internKernel(b []byte) string {
	if string(b) == "fma4" {
		return "fma4"
	}
	return string(b)
}
