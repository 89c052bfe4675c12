// Package xmlwire is the hand-written XML codec under the
// record-carrying PReP messages: append-style element writers whose
// output is byte-identical to encoding/xml's, and a single-pass pull
// decoder over a byte slice that accepts what encoding/xml accepts (a
// short documented list of constructs aside, see Decoder) and yields
// the same values. It exists because reflection-driven encoding/xml was
// the top layer of every recording and query request; the wire itself
// — the paper's SOAP/XML — is unchanged.
//
// The package knows nothing about p-assertions: the message types in
// internal/core, internal/prep and internal/soap carry their own
// AppendXML/DecodeXML methods built from these helpers.
package xmlwire

import (
	"encoding/base64"
	"strconv"
	"time"
	"unicode/utf8"
)

// escapes maps an ASCII byte to what encoding/xml.EscapeText writes
// for it; the empty string means the byte is written as is. Control
// bytes XML cannot carry become U+FFFD, as there.
var escapes = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = "\uFFFD"
	}
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	t['"'], t['\''] = "&#34;", "&#39;"
	t['&'], t['<'], t['>'] = "&amp;", "&lt;", "&gt;"
	return t
}()

// inCharRange reports whether r is in XML's Char production (the same
// set encoding/xml checks on both encode and decode).
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// AppendEscaped appends s as XML character data, escaped exactly as
// encoding/xml.EscapeText escapes it: the five markup characters and
// tab/LF/CR as references, anything outside XML's character range
// (and every byte of invalid UTF-8) as U+FFFD.
func AppendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if esc := escapes[c]; esc != "" {
				dst = append(append(dst, s[last:i]...), esc...)
				last = i + 1
			}
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && width == 1 || !inCharRange(r) {
			dst = append(append(dst, s[last:i]...), "\uFFFD"...)
			last = i + width
		}
		i += width
	}
	return append(dst, s[last:]...)
}

// AppendOpen appends the start tag <tag>.
func AppendOpen(dst []byte, tag string) []byte {
	return append(append(append(dst, '<'), tag...), '>')
}

// AppendClose appends the end tag </tag>.
func AppendClose(dst []byte, tag string) []byte {
	return append(append(append(dst, '<', '/'), tag...), '>')
}

// AppendString appends <tag>s</tag> with s escaped.
func AppendString(dst []byte, tag, s string) []byte {
	return AppendClose(AppendEscaped(AppendOpen(dst, tag), s), tag)
}

// AppendInt appends <tag>v</tag> in decimal.
func AppendInt(dst []byte, tag string, v int64) []byte {
	return AppendClose(strconv.AppendInt(AppendOpen(dst, tag), v, 10), tag)
}

// AppendUint appends <tag>v</tag> in decimal.
func AppendUint(dst []byte, tag string, v uint64) []byte {
	return AppendClose(strconv.AppendUint(AppendOpen(dst, tag), v, 10), tag)
}

// AppendBool appends <tag>true</tag> or <tag>false</tag>.
func AppendBool(dst []byte, tag string, v bool) []byte {
	return AppendClose(strconv.AppendBool(AppendOpen(dst, tag), v), tag)
}

// AppendBase64 appends <tag>…</tag> holding b in standard base64 (whose
// alphabet needs no escaping).
func AppendBase64(dst []byte, tag string, b []byte) []byte {
	return AppendClose(base64.StdEncoding.AppendEncode(AppendOpen(dst, tag), b), tag)
}

// AppendTime appends <tag>t</tag> as encoding/xml marshals a time.Time
// field: RFC 3339 with nanoseconds, an error for a year outside 0–9999.
func AppendTime(dst []byte, tag string, t time.Time) ([]byte, error) {
	dst, err := t.AppendText(AppendOpen(dst, tag))
	if err != nil {
		return nil, err
	}
	return AppendClose(dst, tag), nil
}
