package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// A stream record is the JSON encoding of one Result. Latencies is
// Result's last field and omitempty, so a record that carries samples is
// always
//
//	<the record without latencies, minus its closing '}'>,"latencies":[x,x,…]}
//
// The head goes through encoding/json; the sample array, which is almost
// all of a record's bytes, is written and read here directly with strconv.
// The bytes are exactly json.Marshal's, so the on-disk format is unchanged.

// latenciesKey joins a record's head to its sample array.
const latenciesKey = `,"latencies":[`

// appendResult appends the json.Marshal encoding of r to dst, byte for
// byte, and returns the extended slice. Like json.Marshal it fails on a NaN
// or infinite sample.
func appendResult(dst []byte, r Result) ([]byte, error) {
	lat := r.Latencies
	r.Latencies = nil
	head, err := json.Marshal(r)
	if err != nil || len(lat) == 0 {
		return append(dst, head...), err
	}
	dst = append(dst, head[:len(head)-1]...)
	dst = append(dst, latenciesKey...)
	for i, x := range lat {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendJSONFloat(dst, x); err != nil {
			return dst, err
		}
	}
	return append(dst, ']', '}'), nil
}

// appendJSONFloat appends x formatted exactly as encoding/json formats a
// float64: the shortest representation that round-trips, in 'f' notation
// unless |x| < 1e-6 or |x| ≥ 1e21, with a single-digit negative exponent
// written without its leading zero (1e-7, not 1e-07).
func appendJSONFloat(dst []byte, x float64) ([]byte, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, x, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// decodeResult decodes one record line (a trailing '\n' is allowed) into
// r, with the same outcome as json.Unmarshal into a zero Result. It takes
// a fast path when all of these hold:
//
//   - the line ends in "]}";
//   - a forward search finds latenciesKey;
//   - everything between it and the final "]}" is a non-empty,
//     comma-separated list of numbers in strict JSON grammar, each of
//     which strconv.ParseFloat accepts;
//   - the head before it is a JSON object with at least one member.
//
// The fast path decodes head+"}" with encoding/json and parses the samples
// with strconv. Because the sample span holds no brackets and head+"}" is a
// complete object, the array is a top-level member and the last key of the
// line, so json.Unmarshal of the whole line would assign the same values.
// Any other line — or a fast path that fails part-way — is reset and
// decoded whole by json.Unmarshal.
func decodeResult(line []byte, r *Result) error {
	if head, span, ok := splitRecord(line); ok {
		if samples, ok := parseSamples(span); ok {
			*r = Result{}
			// The full slice expression makes append copy the head
			// instead of overwriting the caller's line.
			if json.Unmarshal(append(head[:len(head):len(head)], '}'), r) == nil {
				r.Latencies = samples
				return nil
			}
		}
	}
	*r = Result{}
	return json.Unmarshal(line, r)
}

// splitRecord splits a record line into its head (everything before
// latenciesKey) and the span of its sample array, if the line has the
// fast-path shape decodeResult describes. It checks the shape only: the
// head's JSON and the span's numbers are left to the caller.
func splitRecord(line []byte) (head, span []byte, ok bool) {
	line = bytes.TrimSuffix(line, []byte{'\n'})
	if !bytes.HasSuffix(line, []byte("]}")) {
		return nil, nil, false
	}
	i := bytes.Index(line, []byte(latenciesKey))
	if i < 0 {
		return nil, nil, false
	}
	head = line[:i]
	// A head whose last non-space byte is '{' would decode as an empty
	// object, yet "{ ," is not JSON.
	if h := bytes.TrimRight(head, " \t\r\n"); len(h) == 0 || h[len(h)-1] == '{' {
		return nil, nil, false
	}
	start, end := i+len(latenciesKey), len(line)-len("]}")
	if start >= end {
		return nil, nil, false
	}
	return head, line[start:end], true
}

// parseSamples parses a comma-separated list of strict JSON numbers.
func parseSamples(span []byte) ([]float64, bool) {
	out := make([]float64, 0, bytes.Count(span, []byte{','})+1)
	for len(span) > 0 {
		n := jsonNumberLen(span)
		if n == 0 {
			return nil, false
		}
		x, err := strconv.ParseFloat(string(span[:n]), 64)
		if err != nil {
			return nil, false
		}
		out = append(out, x)
		span = span[n:]
		if len(span) > 0 {
			if span[0] != ',' || len(span) == 1 {
				return nil, false
			}
			span = span[1:]
		}
	}
	return out, true
}

// jsonNumberLen returns the length of the JSON number
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at the start of b, or 0
// if b does not start with one.
func jsonNumberLen(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i += digits(b[i:])
	default:
		return 0
	}
	if i < len(b) && b[i] == '.' {
		d := digits(b[i+1:])
		if d == 0 {
			return 0
		}
		i += 1 + d
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		d := digits(b[i:])
		if d == 0 {
			return 0
		}
		i += d
	}
	return i
}

// digits returns the number of leading ASCII digits in b.
func digits(b []byte) int {
	i := 0
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
