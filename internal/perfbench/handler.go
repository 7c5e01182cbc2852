package perfbench

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"tiresias/httpserve"
)

// ingestRecords is the size of the HandlerIngest body.
const ingestRecords = 1000

// ingestBody renders one NDJSON body (1000 records of one stream, one
// second apart, over 90 five-level paths) starting at base, and
// returns the offsets of its dates so a run can move it to another
// day by rewriting ten bytes a record.
func ingestBody(base time.Time) (body []byte, dateAt []int) {
	for i := 0; i < ingestRecords; i++ {
		body = append(body, `{"stream":"s000","path":["vho`...)
		body = strconv.AppendInt(body, int64(i%3), 10)
		body = append(body, `","io`...)
		body = strconv.AppendInt(body, int64(i%5), 10)
		body = append(body, `","co`...)
		body = strconv.AppendInt(body, int64(i%6), 10)
		body = append(body, `","dslam12","stb7"],"time":"`...)
		dateAt = append(dateAt, len(body))
		body = base.Add(time.Duration(i)*time.Second).AppendFormat(body, time.RFC3339)
		body = append(body, "\"}\n"...)
	}
	return body, dateAt
}

// HandlerIngest measures one warm 1000-record single-stream NDJSON
// body through the serving layer's handler on a recorder: body read,
// decode, validation, grouping and the synchronous FeedBatch (one
// engine step: a body is one day-long unit's records), response
// included. ns, allocs and bytes are per body.
func HandlerIngest(b *testing.B) {
	s, err := httpserve.New(httpserve.Config{Delta: 24 * time.Hour, WindowLen: 8, Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	day := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	body, dateAt := ingestBody(day)
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/v2/records", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		// Next body: the same records on the next day, the next unit.
		day = day.AddDate(0, 0, 1)
		var date [len("2006-01-02")]byte
		day.AppendFormat(date[:0], "2006-01-02")
		for _, at := range dateAt {
			copy(body[at:], date[:])
		}
	}
	for i := 0; i < 12; i++ { // past the window: caches warm, stream warm
		post()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}
