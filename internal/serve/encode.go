package serve

// Response bodies encoded once, on the objects they describe: a model
// snapshot encodes its ranking, a shard its cohort tables and hotspot
// list, and a plan prefix its candidates' quoted IDs (see snapshot.go
// and shard.go). A request slices those bytes; the only body assembled
// per request is a plan's, from its prefix's pre-quoted IDs and four
// totals. The hand-written JSON writers here match encoding/json byte
// for byte (FuzzJSONWritersMatchStdlib), so every body equals what the
// stdlib would encode from the same values.

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/plan"
)

// listClose ends a list body cut from an encodedList.
var listClose = []byte("]\n")

// encodedList is a JSON array encoded once and served by prefix: the
// body of its first k elements is body[:end[k]] followed by listClose,
// and body[end[i]:end[i+1]] is element i, after a comma when i > 0.
type encodedList struct {
	body []byte
	end  []int32
}

// emptyList is the encoding of no elements, the list every encoding
// extends from.
var emptyList = encodedList{body: []byte{'['}, end: []int32{1}}

// extend returns l with elements len(l.end)-1 up to n-1 appended by
// appendElem, into new arrays sized for about size more body bytes, so
// a list already being served is never written to. It stops before the
// first element appendElem reports unencodable, and then reports false.
func (l encodedList) extend(n, size int, appendElem func(dst []byte, i int) ([]byte, bool)) (encodedList, bool) {
	next := encodedList{
		body: append(make([]byte, 0, len(l.body)+size), l.body...),
		end:  append(make([]int32, 0, n+1), l.end...),
	}
	for i := len(l.end) - 1; i < n; i++ {
		elem := len(next.body)
		if i > 0 {
			next.body = append(next.body, ',')
		}
		var ok bool
		if next.body, ok = appendElem(next.body, i); !ok {
			next.body = next.body[:elem]
			return next, false
		}
		next.end = append(next.end, int32(len(next.body)))
	}
	return next, true
}

// appendLengths appends to lens, in a new slice, the Content-Length
// value of each prefix body from len(lens) on. The new values share one
// string of digits, so a value costs no allocation of its own.
func (l *encodedList) appendLengths(lens []string) []string {
	var buf [20]byte
	longest := len(strconv.AppendInt(buf[:0], int64(len(l.body)+len(listClose)), 10))
	var digits strings.Builder
	digits.Grow((len(l.end) - len(lens)) * longest)
	out := append(make([]string, 0, len(l.end)), lens...)
	for _, e := range l.end[len(lens):] {
		at := digits.Len()
		digits.Write(strconv.AppendInt(buf[:0], int64(e)+int64(len(listClose)), 10))
		out = append(out, digits.String()[at:])
	}
	return out
}

// encoded is one response body, head then tail, with its ETag and
// Content-Length header values, or the error that kept it from being
// encoded.
type encoded struct {
	head, tail   []byte
	etag, length []string
	err          error
}

// newEncoded tags a body with its hash and length.
func newEncoded(head, tail []byte) encoded {
	return encoded{head: head, tail: tail, etag: []string{bodyETag(head, tail)}, length: []string{strconv.Itoa(len(head) + len(tail))}}
}

// encodeFixed encodes v whole, ending it with the newline json.Encoder
// writes; err is v's own construction error, kept to be reported per
// request.
func encodeFixed(v any, err error) encoded {
	var body []byte
	if err == nil {
		body, err = json.Marshal(v)
	}
	if err != nil {
		return encoded{err: err}
	}
	return newEncoded(body, listClose[1:])
}

// fnv64a returns the FNV-1a hash of the parts in order.
func fnv64a(parts ...[]byte) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum64()
}

// appendBodyETag appends the strong validator of a body whose fnv64a is h.
func appendBodyETag(dst []byte, h uint64) []byte {
	dst = append(dst, `"b-`...)
	dst = strconv.AppendUint(dst, h, 16)
	return append(dst, '"')
}

// bodyETag is the quoted strong validator of a body with no snapshot
// ETag: plans, cohort tables and hotspot lists.
func bodyETag(parts ...[]byte) string { return string(appendBodyETag(nil, fnv64a(parts...))) }

// planPrefix is a plan.Prefix with its candidates' JSON-quoted IDs
// encoded once, in the prefix's order.
type planPrefix struct {
	*plan.Prefix
	ids encodedList
}

func newPlanPrefix(cands []plan.Candidate, cm plan.CostModel) (*planPrefix, error) {
	px, err := plan.BuildPrefix(cands, cm)
	if err != nil {
		return nil, err
	}
	order := px.Order()
	ids, _ := emptyList.extend(len(order), 16*len(order), func(dst []byte, i int) ([]byte, bool) {
		return writeJSONString(dst, order[i].ID), true
	})
	return &planPrefix{px, ids}, nil
}

// appendPlanPipes appends the plan response body for sel up to its
// totals, exactly as encoding/json renders the planResponse it stands
// for.
func (pp *planPrefix) appendPlanPipes(dst []byte, model string, sel plan.Selection) []byte {
	dst = append(dst, `{"model":`...)
	dst = writeJSONString(dst, model)
	if sel.K+len(sel.Tail) == 0 {
		return append(dst, `,"pipes":null`...)
	}
	dst = append(dst, `,"pipes":`...)
	dst = append(dst, pp.ids.body[:pp.ids.end[sel.K]]...)
	for _, i := range sel.Tail { // i > K: each ID after its comma
		id := pp.ids.body[pp.ids.end[i]:pp.ids.end[i+1]]
		if dst[len(dst)-1] == '[' {
			id = id[1:]
		}
		dst = append(dst, id...)
	}
	return append(dst, ']')
}

// appendPlanTotals appends the rest of the plan body for sel: its four
// totals and the closing brace and newline. It reports false when a
// total is not finite, which JSON cannot encode.
func appendPlanTotals(dst []byte, sel plan.Selection) ([]byte, bool) {
	totals := [...]float64{sel.TotalLengthM / 1000, sel.InspectionCost, sel.ExpectedPrevented, sel.ExpectedNet}
	for i, name := range [...]string{`,"total_km":`, `,"inspection_cost":`, `,"expected_prevented":`, `,"expected_net":`} {
		if !finite(totals[i]) {
			return dst, false
		}
		dst = writeJSONFloat(append(dst, name...), totals[i])
	}
	return append(dst, '}', '\n'), true
}

const hexDigits = "0123456789abcdef"

// writeJSONString appends s as a JSON string exactly as encoding/json
// renders it: the HTML-safe <, >, & escapes, short escapes for \b, \f,
// \n, \r and \t, U+FFFD for invalid UTF-8, and escaped U+2028/U+2029.
func writeJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// writeJSONFloat appends a finite f exactly as encoding/json renders a
// float64: shortest representation, 'f' form except for very
// small/large magnitudes, which use 'e' form with a cleaned-up exponent.
func writeJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
