package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// maxBody caps a /classify or /ingest request body.
const maxBody = 8 << 20

// maxPooledBody is the largest request buffer returned to docPool. A
// rare large body is read into a buffer of its own size, and dropping
// that buffer afterwards keeps the pool from pinning it.
const maxPooledBody = 1 << 20

// docBuf is one request's working memory: the raw body and the bytes of
// a string value after unescaping.
type docBuf struct {
	body    bytes.Buffer
	unquote []byte
}

var docPool = sync.Pool{New: func() any { return new(docBuf) }}

// readDoc reads a {"url","html"} request body through the size cap and
// decodes it. It accepts exactly the bodies json.Decoder.Decode accepts
// into an ingestRequest, with the same field values, and answers the
// same error for the others; only a body past maxBody, which a decoder
// that stops at the first value's end may never read, is refused here.
func readDoc(w http.ResponseWriter, r *http.Request) (ingestRequest, error) {
	d := docPool.Get().(*docBuf)
	defer func() {
		if d.body.Cap() <= maxPooledBody && cap(d.unquote) <= maxPooledBody {
			d.body.Reset()
			docPool.Put(d)
		}
	}()
	if _, err := d.body.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		return ingestRequest{}, err
	}
	return d.decode(d.body.Bytes())
}

// decode decodes one body. The shape every JSON client sends — one
// object whose keys are exactly "url" or "html", each at most once,
// with string values and only whitespace after it — is scanned in a
// single pass. Everything else (other key spellings, which
// encoding/json matches case-insensitively, null or non-string values,
// duplicate keys, bytes after the object, malformed input) goes to
// json.Decoder on the same bytes.
func (d *docBuf) decode(b []byte) (ingestRequest, error) {
	if req, ok := d.scanDoc(b); ok {
		return req, nil
	}
	var req ingestRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, err
}

// scanDoc is decode's single-pass path; ok is false for any body
// outside its grammar.
func (d *docBuf) scanDoc(b []byte) (req ingestRequest, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, skipSpace(b, i+1) == len(b)
	}
	var seenURL, seenHTML bool
	for {
		var dst *string
		switch {
		case bytes.HasPrefix(b[i:], []byte(`"url"`)) && !seenURL:
			dst, seenURL = &req.URL, true
			i += len(`"url"`)
		case bytes.HasPrefix(b[i:], []byte(`"html"`)) && !seenHTML:
			dst, seenHTML = &req.HTML, true
			i += len(`"html"`)
		default:
			return req, false
		}
		i = skipSpace(b, i)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		n, ok := d.scanString(b[i:], dst)
		if !ok {
			return req, false
		}
		i = skipSpace(b, i+n)
		if i == len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return req, skipSpace(b, i+1) == len(b)
		default:
			return req, false
		}
	}
}

// scanString decodes the JSON string at the start of b into *dst and
// returns the bytes it spans. Unescaping follows encoding/json: a valid
// \u surrogate pair becomes one rune, and a lone surrogate or an
// invalid UTF-8 byte becomes U+FFFD. A control byte, a bad escape or a
// missing close quote fails the scan.
func (d *docBuf) scanString(b []byte, dst *string) (int, bool) {
	if len(b) == 0 || b[0] != '"' {
		return 0, false
	}
	// A string of plain ASCII needs no unescaping: copy it out in one step.
	i := plainRun(b, 1)
	if i < len(b) && b[i] == '"' {
		*dst = string(b[1:i])
		return i + 1, true
	}
	out := append(d.unquote[:0], b[1:i]...)
	for i < len(b) {
		if j := plainRun(b, i); j > i {
			out = append(out, b[i:j]...)
			i = j
			continue
		}
		switch c := b[i]; {
		case c == '"':
			*dst = string(out)
			d.unquote = out
			return i + 1, true
		case c < 0x20:
			return 0, false
		case c == '\\':
			if i+1 == len(b) {
				return 0, false
			}
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
				r := hex4(b[i:])
				if r < 0 {
					return 0, false
				}
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, hex4(b[i+6:])); dec != utf8.RuneError {
						out = utf8.AppendRune(out, dec)
						i += 12
						continue
					}
					r = utf8.RuneError
				}
				out = utf8.AppendRune(out, r)
				i += 6
				continue
			default:
				return 0, false
			}
			i += 2
		default:
			// An invalid byte decodes as U+FFFD of size 1.
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return 0, false
}

// plainRun returns the end of the run of bytes from i that stand for
// themselves in a JSON string: ASCII other than a control byte, a quote
// or a backslash.
func plainRun(b []byte, i int) int {
	for i < len(b) && b[i] >= 0x20 && b[i] < utf8.RuneSelf && b[i] != '"' && b[i] != '\\' {
		i++
	}
	return i
}

// hex4 returns the code unit of a \uXXXX escape at the start of b, or
// -1 when b does not start with one.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}
