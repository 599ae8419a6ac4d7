package eventbus

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// The helpers below, and the LineEncoder's str and float (trace.go),
// are what every Event's appendJSON is written in. Each takes the bytes
// that precede the value — the opening brace or separating comma and the
// quoted field name, one string constant — and appends them and the
// value exactly as encoding/json (HTML escaping on) would;
// TestAppendMatchesEncodingJSON holds them to that.

const hexDigits = "0123456789abcdef"

// appendFloat appends f in encoding/json's ES6-style number format:
// plain decimal, except exponent form below 1e-6 and from 1e21 up, with
// a one-digit negative exponent unpadded. JSON has no spelling for NaN
// or ±Inf; given one it appends strconv's text, which no line carries
// (LineEncoder.float and AppendLine refuse them first).
func appendFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1] // e-09 is written e-9
			dst = dst[:n-1]
		}
		return dst
	}
	return strconv.AppendFloat(dst, f, 'f', -1, 64)
}

func appendInt(dst []byte, key string, n int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(n), 10)
}

func appendBool(dst []byte, key string, b bool) []byte {
	return strconv.AppendBool(append(dst, key...), b)
}

// uintLen and intLen are the lengths of strconv's decimal text.
func uintLen(u uint64) int {
	n := 1
	for ; u >= 100; u /= 100 {
		n += 2
	}
	if u >= 10 {
		n++
	}
	return n
}

func intLen(i int) int {
	if i < 0 {
		return 1 + uintLen(uint64(-int64(i)))
	}
	return uintLen(uint64(i))
}

// plainByte marks the bytes a JSON string carries as they are: ASCII
// from space up, less the two the syntax needs escaped and the three
// encoding/json escapes to keep a trace safe to embed in HTML.
var plainByte = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	t['"'], t['\\'], t['<'], t['>'], t['&'] = false, false, false, false, false
	return t
}()

// appendString appends s as a quoted JSON string. Runs of plain
// bytes are copied whole; the rest is escaped as encoding/json does it:
// the quote and backslash behind a backslash, \b \f \n \r \t by name,
// other control bytes and < > & as \u00XX, invalid UTF-8 as the six
// characters \ufffd, and the line and paragraph separators U+2028/9 as
// \u2028 and \u2029.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if plainByte[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
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
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// quotedLen is len(appendString(nil, s)), counted the way
// appendString escapes.
func quotedLen(s string) int {
	n := len(`""`)
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			switch {
			case plainByte[b]:
				n++
			case b == '\\', b == '"', b == '\b', b == '\f', b == '\n', b == '\r', b == '\t':
				n += 2
			default:
				n += len(`\u00XX`)
			}
			i++
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 || c == '\u2028' || c == '\u2029' {
			n += len(`\ufffd`)
		} else {
			n += size
		}
		i += size
	}
	return n
}
