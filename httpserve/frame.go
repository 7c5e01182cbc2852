package httpserve

import (
	"encoding/json"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"tiresias"
	"tiresias/api"
)

// The watch stream's anomaly frames are rendered by an append-style
// encoder instead of json.Marshal: the hub encodes each entry once,
// into bytes every watcher shares, so the encoder must not allocate
// and its output must be byte-identical to encoding/json (HTML
// escaping included) — FuzzSSEFrame holds it to that. Values outside
// the fast path (non-ASCII strings, non-finite floats, times whose
// year or zone RFC 3339 cannot carry) are rendered by encoding/json
// itself, so they keep its output and its errors.

// anomalyFrameData sits between an anomaly frame's id and its data.
const anomalyFrameData = "\nevent: " + api.EventAnomaly + "\ndata: "

// frameBound is an upper bound on the length of e's frame: the fixed
// fields at their widest plus six bytes (a \u00XX escape, or a
// U+FFFD escape for an invalid byte) per string byte.
func frameBound(e *tiresias.AnomalyEntry) int {
	return 320 + 6*(len(e.Stream)+len(e.Key))
}

// appendFrame appends e's complete SSE anomaly frame to b:
// "id: <cursor>\nevent: anomaly\ndata: <json>\n\n", where the cursor
// is api.Cursor(epoch, e.Seq) and the JSON is json.Marshal(e). When
// encoding/json rejects a value, b is returned unextended with its
// error.
//
//tiresias:hotpath
func appendFrame(b []byte, epoch uint64, e *tiresias.AnomalyEntry) ([]byte, error) {
	n := len(b)
	b = append(b, "id: "...)
	b = api.AppendCursor(b, epoch, e.Seq)
	b = append(b, anomalyFrameData...)
	b, err := appendEntry(b, e)
	if err != nil {
		return b[:n], err
	}
	return append(b, "\n\n"...), nil
}

// appendEntry appends json.Marshal(e) to b.
//
//tiresias:hotpath
func appendEntry(b []byte, e *tiresias.AnomalyEntry) ([]byte, error) {
	var err error
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	b = append(b, `,"stream":`...)
	if b, err = appendString(b, e.Stream); err != nil {
		return b, err
	}
	b = append(b, `,"key":`...)
	if b, err = appendString(b, string(e.Key)); err != nil {
		return b, err
	}
	b = append(b, `,"depth":`...)
	b = strconv.AppendInt(b, int64(e.Depth), 10)
	b = append(b, `,"instance":`...)
	b = strconv.AppendInt(b, int64(e.Instance), 10)
	b = append(b, `,"time":`...)
	if b, err = appendTime(b, e.Time); err != nil {
		return b, err
	}
	b = append(b, `,"actual":`...)
	if b, err = appendFloat(b, e.Actual); err != nil {
		return b, err
	}
	b = append(b, `,"forecast":`...)
	if b, err = appendFloat(b, e.Forecast); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendString appends s as encoding/json quotes it: \" \\ \b \f \n
// \r \t short escapes, other control bytes and the HTML-sensitive
// < > & as \u00XX, everything else verbatim. Non-ASCII strings (whose
// invalid bytes and U+2028/U+2029 encoding/json rewrites) take the
// slow path.
//
//tiresias:hotpath
func appendString(b []byte, s string) ([]byte, error) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			//tiresias:ignore hotpath (fallback: encoding/json renders non-ASCII strings)
			return appendMarshal(b, s)
		}
	}
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"'), nil
}

// appendTime appends t as time.Time.MarshalJSON renders it: quoted
// RFC 3339 with nanoseconds. A year outside 0–9999 or a zone offset
// of 24 hours or more, which MarshalJSON rejects, takes the slow path.
//
//tiresias:hotpath
func appendTime(b []byte, t time.Time) ([]byte, error) {
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off <= -24*60*60 || off >= 24*60*60 {
		//tiresias:ignore hotpath (fallback: encoding/json reports the error)
		return appendMarshal(b, t)
	}
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"'), nil
}

// appendFloat appends f as encoding/json renders a float64: the
// shortest 'f' form, or 'e' form below 1e-6 and from 1e21 on with a
// two-digit negative exponent trimmed (1e-07 → 1e-7). NaN and ±Inf,
// which encoding/json rejects, take the slow path.
//
//tiresias:hotpath
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		//tiresias:ignore hotpath (fallback: encoding/json reports the error)
		return appendMarshal(b, f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendMarshal is the encoder's slow path: encoding/json renders v.
func appendMarshal(b []byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return b, err
	}
	return append(b, raw...), nil
}
