package api

import (
	"errors"
	"testing"

	"tiresias"
)

func TestCursorRoundTrip(t *testing.T) {
	for _, epoch := range []uint64{0, 7, 1 << 50} {
		for _, seq := range []uint64{0, 1, 35, 36, 1 << 40, ^uint64(0)} {
			ge, gs, err := ParseCursor(Cursor(epoch, seq))
			if err != nil || ge != epoch || gs != seq {
				t.Fatalf("round trip (%d,%d) -> %q -> (%d,%d), %v", epoch, seq, Cursor(epoch, seq), ge, gs, err)
			}
		}
	}
	if got := string(AppendCursor([]byte("x="), 7, 36)); got != "x="+Cursor(7, 36) {
		t.Fatalf("AppendCursor = %q, want the Cursor token after the prefix", got)
	}
	if ge, gs, err := ParseCursor(""); err != nil || ge != 0 || gs != 0 {
		t.Fatalf("empty cursor = (%d,%d), %v", ge, gs, err)
	}
	if ge, gs, err := ParseCursor("0"); err != nil || ge != 0 || gs != 0 {
		t.Fatalf("zero cursor = (%d,%d), %v", ge, gs, err)
	}
	for _, bad := range []string{"x12", "c", "c-3", "c12#", "12", "c12", "c1.2.3", "c1.", "c.2"} {
		if _, _, err := ParseCursor(bad); err == nil {
			t.Fatalf("cursor %q must not parse", bad)
		}
	}
}

// FuzzParseCursor: every (epoch, seq) survives Cursor → ParseCursor;
// every token ParseCursor accepts, whatever its spelling (upper-case
// digits, leading zeros, the "" and "0" zero forms), re-encodes with
// AppendCursor to a token that parses to the same pair; and no input
// panics.
func FuzzParseCursor(f *testing.F) {
	f.Add("c7.10", uint64(7), uint64(36))
	f.Fuzz(func(t *testing.T, token string, epoch, seq uint64) {
		if ge, gs, err := ParseCursor(Cursor(epoch, seq)); err != nil || ge != epoch || gs != seq {
			t.Fatalf("round trip (%d,%d) -> %q -> (%d,%d), %v", epoch, seq, Cursor(epoch, seq), ge, gs, err)
		}
		e, s, err := ParseCursor(token)
		if err != nil {
			return
		}
		again := AppendCursor(nil, e, s)
		if ge, gs, err := ParseCursor(string(again)); err != nil || ge != e || gs != s {
			t.Fatalf("%q -> (%d,%d) -> %q -> (%d,%d), %v", token, e, s, again, ge, gs, err)
		}
	})
}

func TestErrorSentinelRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		sentinel error
		code     string
	}{
		{tiresias.ErrQueueFull, CodeQueueFull},
		{tiresias.ErrPipelineClosed, CodePipelineClosed},
		{tiresias.ErrStreamDropped, CodeStreamDropped},
		{tiresias.ErrOutOfOrder, CodeOutOfOrder},
		{tiresias.ErrMaxGap, CodeMaxGap},
		{tiresias.ErrNoCheckpoint, CodeNoCheckpoint},
	} {
		if got := CodeFor(tc.sentinel, CodeInternal); got != tc.code {
			t.Fatalf("CodeFor(%v) = %q, want %q", tc.sentinel, got, tc.code)
		}
		// A wrapped sentinel still maps.
		if got := CodeFor(errors.Join(errors.New("ctx"), tc.sentinel), CodeInternal); got != tc.code {
			t.Fatalf("CodeFor(wrapped %v) = %q, want %q", tc.sentinel, got, tc.code)
		}
		// And the wire error unwraps back to the sentinel.
		e := &Error{Code: tc.code, Message: "m"}
		if !errors.Is(e, tc.sentinel) {
			t.Fatalf("errors.Is(&Error{%s}, sentinel) = false", tc.code)
		}
	}
	if got := CodeFor(errors.New("other"), CodeBadRequest); got != CodeBadRequest {
		t.Fatalf("fallback = %q", got)
	}
	if errors.Is(&Error{Code: CodeBadRequest}, tiresias.ErrQueueFull) {
		t.Fatal("unrelated code must not match a sentinel")
	}
}

func TestStatusFor(t *testing.T) {
	for code, want := range map[string]int{
		CodeBadRequest: 400, CodeInvalidRecord: 400, CodeOutOfOrder: 400,
		CodeMaxGap: 400, CodeBodyTooLarge: 413, CodeStreamDropped: 410,
		CodeQueueFull: 429, CodePipelineClosed: 503, CodeUnknownStream: 404,
		CodeNoCheckpoint: 404, CodeCheckpointDisabled: 409, CodeInternal: 500,
		"never-heard-of-it": 500,
	} {
		if got := StatusFor(code); got != want {
			t.Fatalf("StatusFor(%s) = %d, want %d", code, got, want)
		}
	}
}
