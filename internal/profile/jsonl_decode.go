package profile

import (
	"time"
	"unicode/utf8"
)

// decodeJSONLLine is ParseJSONLLine's fast path: a reflection-free
// decoder for exactly the line shape AppendJSONLRecord emits — the keys
// in its order, the optional keys where it puts them, no whitespace,
// canonical integers. It reports false for any other line, and the
// caller then decodes it with encoding/json, which stays the
// specification: every line accepted here decodes to the same entry
// through json.Unmarshal (FuzzParseJSONLLine pins this). Lines that
// need encoding/json's rarer rules fall back too: surrogate \u escapes,
// invalid UTF-8, control bytes, -0, numbers of 19 or more digits, and
// unknown outcomes (whose error the fallback words).
//
// Each non-empty string field costs one allocation, its string; the
// outcome costs none.
func decodeJSONLLine(line []byte) (JSONLEntry, bool) {
	var buf [128]byte
	scratch := buf[:0]
	d := jsonlDecoder{rest: line}
	var out JSONLEntry
	var seq, ns int64
	if !d.lit(`{"system":`) || !d.str(scratch, &out.System) ||
		!d.lit(`,"generator":`) || !d.str(scratch, &out.Generator) ||
		!d.lit(`,"seq":`) || !d.num(&seq) ||
		!d.lit(`,"scenario_id":`) || !d.str(scratch, &out.Record.ScenarioID) ||
		!d.lit(`,"class":`) || !d.str(scratch, &out.Record.Class) {
		return JSONLEntry{}, false
	}
	if d.lit(`,"description":`) && !d.str(scratch, &out.Record.Description) {
		return JSONLEntry{}, false
	}
	if !d.lit(`,"outcome":`) {
		return JSONLEntry{}, false
	}
	name, ok := d.raw(scratch)
	if !ok {
		return JSONLEntry{}, false
	}
	if out.Record.Outcome = outcomeByName(name); out.Record.Outcome == 0 {
		return JSONLEntry{}, false
	}
	if d.lit(`,"detail":`) && !d.str(scratch, &out.Record.Detail) {
		return JSONLEntry{}, false
	}
	if d.lit(`,"duration_ns":`) && !d.num(&ns) {
		return JSONLEntry{}, false
	}
	if !d.lit(`}`) || len(d.rest) != 0 || int64(int(seq)) != seq {
		return JSONLEntry{}, false
	}
	out.Seq = int(seq)
	out.Record.Duration = time.Duration(ns)
	return out, true
}

// jsonlDecoder walks one line front to back. scratch receives the
// decoded form of a string that holds escapes; one buffer serves every
// field, since each string is copied out before the next is decoded. It
// is passed to raw rather than kept in the struct, so that it stays on
// the caller's stack: a slice stored through the receiver would escape.
type jsonlDecoder struct {
	rest []byte
}

// lit consumes s if the line continues with it.
func (d *jsonlDecoder) lit(s string) bool {
	if len(d.rest) < len(s) || string(d.rest[:len(s)]) != s {
		return false
	}
	d.rest = d.rest[len(s):]
	return true
}

// num consumes a canonical integer of at most 18 digits, which cannot
// overflow: 0, or an optional minus and a nonzero leading digit. -0,
// leading zeros and longer numbers are left to encoding/json.
func (d *jsonlDecoder) num(v *int64) bool {
	b := d.rest
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n, i := int64(0), 0
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + int64(b[i]-'0')
	}
	if i == 0 || i > 18 || (b[0] == '0' && (i > 1 || neg)) {
		return false
	}
	if neg {
		n = -n
	}
	*v = n
	d.rest = b[i:]
	return true
}

// str consumes a string literal into *s.
func (d *jsonlDecoder) str(scratch []byte, s *string) bool {
	b, ok := d.raw(scratch)
	if ok {
		*s = string(b)
	}
	return ok
}

// raw consumes a string literal and returns its decoded bytes: a slice
// of the line when it holds no escape, else of scratch's array (or of a
// grown copy, for a long escaped string), valid until the next call.
func (d *jsonlDecoder) raw(scratch []byte) ([]byte, bool) {
	b := d.rest
	if len(b) == 0 || b[0] != '"' {
		return nil, false
	}
	b = b[1:]
	out, escaped := scratch[:0], false
	for i, start := 0, 0; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			d.rest = b[i+1:]
			if !escaped {
				return b[:i], true
			}
			return append(out, b[start:i]...), true
		case c == '\\':
			if i+1 >= len(b) {
				return nil, false
			}
			out, escaped = append(out, b[start:i]...), true
			switch b[i+1] {
			case '"', '\\', '/':
				out = append(out, b[i+1])
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, ok := hex4(b[i+2:])
				if !ok || !utf8.ValidRune(r) {
					// Surrogates, paired or lone, are encoding/json's.
					return nil, false
				}
				out = utf8.AppendRune(out, r)
				i += 4
			default:
				return nil, false
			}
			i += 2
			start = i
		case c < ' ':
			return nil, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			i += size
		}
	}
	return nil, false
}

// hex4 parses the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
