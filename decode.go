package pdce

import (
	"bytes"
	"encoding/json"
	"strings"
	"unicode/utf8"
)

// decodeOptimizeResponse decodes a POST /optimize reply body into out
// exactly as json.NewDecoder(bytes.NewReader(raw)).Decode(out) does:
// it accepts the same bodies, decodes the same values and ignores the
// bytes after the object. decodeOptimizeFast reads the layout
// json.Marshal writes, which is every body pdced serves, straight into
// out, without encoding/json's separate scan of the whole value; any
// other body goes to encoding/json.
func decodeOptimizeResponse(raw []byte, out *OptimizeResponse) error {
	if decodeOptimizeFast(raw, out) {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(raw)).Decode(out)
}

// decodeOptimizeFast decodes raw into out and reports true when raw
// opens with an OptimizeResponse object in json.Marshal's layout: the
// fields in declaration order, no whitespace, each omitempty field
// present or not, and strings of valid UTF-8 without control bytes
// whose escapes are \" \\ \/ \b \f \n \r \t or a \uXXXX outside the
// surrogates. The stats object goes to json.Unmarshal. On any other
// input it reports false with out untouched, except that a stats
// object json.Unmarshal refuses may have written into the Telemetry
// out.Stats points to, which encoding/json then decodes the same bytes
// into again.
func decodeOptimizeFast(raw []byte, out *OptimizeResponse) bool {
	v := *out // absent fields keep their values, as with encoding/json
	d := fastDecoder{b: raw, ok: true}
	d.str(`{"name":`, &v.Name)
	d.str(`,"key":`, &v.Key)
	d.str(`,"mode":`, &v.Mode)
	d.str(`,"program":`, &v.Program)
	d.str(`,"listing":`, &v.Listing)
	stats := d.object(`,"stats":`)
	if d.lit(`,"degraded":`) {
		v.Degraded = d.boolean()
	}
	d.optStr(`,"error":`, &v.Error)
	d.optStr(`,"error_kind":`, &v.ErrorKind)
	d.optStr(`,"explain":`, &v.Explain)
	if !d.lit("}") || json.Unmarshal(stats, &v.Stats) != nil {
		return false
	}
	*out = v
	return true
}

// fastDecoder consumes the layout decodeOptimizeFast reads from the
// front of b. Once ok is false, every method is a no-op.
type fastDecoder struct {
	b  []byte
	ok bool
}

// lit consumes s if the input goes on with it.
func (d *fastDecoder) lit(s string) bool {
	if d.ok && len(d.b) >= len(s) && string(d.b[:len(s)]) == s {
		d.b = d.b[len(s):]
		return true
	}
	return false
}

// str consumes key and the string after it into *dst. Without key the
// input is refused.
func (d *fastDecoder) str(key string, dst *string) {
	if !d.lit(key) {
		d.ok = false
		return
	}
	*dst = d.quoted()
}

// optStr is str for an omitempty field: key may be absent.
func (d *fastDecoder) optStr(key string, dst *string) {
	if d.lit(key) {
		*dst = d.quoted()
	}
}

// boolean consumes true or false.
func (d *fastDecoder) boolean() bool {
	if d.lit("true") {
		return true
	}
	if !d.lit("false") {
		d.ok = false
	}
	return false
}

// stringStop marks the bytes that end a run of plain bytes inside a
// string literal: the quote, the backslash, control bytes and bytes
// outside ASCII.
var stringStop = func() (t [256]bool) {
	for c := range t {
		t[c] = c < ' ' || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return t
}()

// quoted consumes one string literal and returns its value.
func (d *fastDecoder) quoted() string {
	b := d.b
	if !d.ok || len(b) == 0 || b[0] != '"' {
		d.ok = false
		return ""
	}
	escaped, wide := false, false
	i := 1
	for ; i < len(b); i++ {
		c := b[i]
		if !stringStop[c] {
			continue
		}
		if c == '"' {
			break
		}
		switch {
		case c == '\\':
			escaped = true
			i++ // the escaped byte cannot end the literal
		case c < ' ':
			d.ok = false // encoding/json refuses it
			return ""
		default:
			wide = true
		}
	}
	if i >= len(b) {
		d.ok = false
		return ""
	}
	s := b[1:i]
	d.b = b[i+1:]
	// encoding/json replaces invalid UTF-8 with U+FFFD; leave that to
	// it. Escapes are ASCII, so checking the raw bytes checks the
	// runs between them.
	if wide && !utf8.Valid(s) {
		d.ok = false
		return ""
	}
	if !escaped {
		return string(s)
	}
	return d.unescape(s)
}

// unescape returns the value of a literal's bytes s, which hold at
// least one escape. Each escape is at least as long as what it stands
// for, so one allocation of len(s) holds the value.
func (d *fastDecoder) unescape(s []byte) string {
	var sb strings.Builder
	sb.Grow(len(s))
	for {
		i := bytes.IndexByte(s, '\\')
		if i < 0 {
			sb.Write(s)
			return sb.String()
		}
		sb.Write(s[:i])
		c := s[i+1] // quoted skipped the byte after a backslash, so it exists
		switch c {
		case '"', '\\', '/':
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		case 'u':
			r, ok := hex4(s[i+2:])
			// encoding/json pairs surrogate escapes or replaces them;
			// leave both to it.
			if !ok || r >= 0xd800 && r < 0xe000 {
				d.ok = false
				return ""
			}
			sb.WriteRune(r)
			s = s[i+6:]
			continue
		default:
			d.ok = false
			return ""
		}
		sb.WriteByte(c)
		s = s[i+2:]
	}
}

// hex4 reads the four hex digits at the front of b.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// maxStatsDepth bounds the nesting of the stats object the fast path
// takes. encoding/json refuses nesting past 10,000 levels counted from
// the top of the body, one level above stats; declining anything deep
// keeps both answers the same. Stats nests a few levels.
const maxStatsDepth = 64

// object consumes key and the object after it and returns the object's
// bytes, from its '{' to the matching '}', skipping strings. Whether
// the bytes are valid JSON is json.Unmarshal's to say.
func (d *fastDecoder) object(key string) []byte {
	if !d.lit(key) || len(d.b) == 0 || d.b[0] != '{' {
		d.ok = false
		return nil
	}
	b, depth := d.b, 0
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if depth++; depth > maxStatsDepth {
				d.ok = false
				return nil
			}
		case '}', ']':
			if depth--; depth == 0 {
				d.b = b[i+1:]
				return b[:i+1]
			}
		}
	}
	d.ok = false
	return nil
}
