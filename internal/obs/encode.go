package obs

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// appendEvent appends the JSON encoding of ev to dst: the bytes
// json.Marshal(ev) returns, written without reflection. The layout is
// encoding/json's for Event — fields in declaration order, zero-valued
// optional fields omitted, attribute keys sorted, strings escaped for
// HTML, floats in ES6 number form. Attribute values other than nil,
// string, bool, int, int64, uint64 and finite float64 are encoded by
// json.Marshal of the value alone. When an attribute cannot be encoded
// (a NaN, an unsupported type) the record keeps its header and carries
// {"marshal_error": <error>} as its attributes instead, so one bad
// attribute never corrupts or loses a record.
func appendEvent(dst []byte, ev Event) []byte {
	start := len(dst)
	out, err := appendRecord(dst, ev)
	if err == nil {
		return out
	}
	ev.Attrs = map[string]any{"marshal_error": err.Error()}
	out, _ = appendRecord(out[:start], ev)
	return out
}

// appendRecord is appendEvent without the marshal_error fallback.
func appendRecord(dst []byte, ev Event) ([]byte, error) {
	dst = append(dst, `{"ts":`...)
	dst = strconv.AppendInt(dst, ev.TS, 10)
	dst = append(dst, `,"type":`...)
	dst = appendString(dst, ev.Type)
	if ev.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = appendString(dst, ev.Name)
	}
	if ev.Span != 0 {
		dst = append(dst, `,"span":`...)
		dst = strconv.AppendUint(dst, ev.Span, 10)
	}
	if ev.Parent != 0 {
		dst = append(dst, `,"parent":`...)
		dst = strconv.AppendUint(dst, ev.Parent, 10)
	}
	if ev.Dur != 0 {
		dst = append(dst, `,"dur_ns":`...)
		dst = strconv.AppendInt(dst, ev.Dur, 10)
	}
	if ev.V != 0 {
		dst = append(dst, `,"v":`...)
		dst = strconv.AppendInt(dst, int64(ev.V), 10)
	}
	if len(ev.Attrs) > 0 {
		var arr [16]string
		keys := arr[:0]
		for k := range ev.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		dst = append(dst, `,"attrs":{`...)
		for i, k := range keys {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, k)
			dst = append(dst, ':')
			var err error
			if dst, err = appendValue(dst, ev.Attrs[k]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendValue appends one attribute value as encoding/json writes it.
func appendValue(dst []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return appendString(dst, x), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case int:
		return strconv.AppendInt(dst, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case uint64:
		return strconv.AppendUint(dst, x, 10), nil
	case float64:
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			return appendFloat(dst, x), nil
		}
	}
	b, err := json.Marshal(v)
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendFloat appends a finite float64 in encoding/json's form: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 on, with a two-digit negative exponent trimmed (e-07 →
// e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal writes
// it: '"' and '\\' backslash-escaped, \b \f \n \r \t by name, other
// control bytes and the HTML-sensitive '<', '>', '&' as \u00XX, U+2028
// and U+2029 as \u2028 and \u2029, and each byte of invalid UTF-8 as
// \ufffd.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
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
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		} else if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
