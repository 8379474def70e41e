package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"pathdriverwash/internal/solve"
)

// FuzzDecodeRequest feeds arbitrary bodies to the pdw.v1 request
// decoder. It must never panic, every refusal must map to a 400 (wrap
// ErrInvalidAssay), and any accepted request must re-encode to a body
// the decoder accepts again with the same cache key.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(validRequestBody)
	for _, body := range rejectedRequests {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeRequest(strings.NewReader(body))
		if err != nil {
			if !errors.Is(err, solve.ErrInvalidAssay) {
				t.Fatalf("refusal %v does not wrap ErrInvalidAssay", err)
			}
			return
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(req); err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		again, err := DecodeRequest(&buf)
		if err != nil {
			t.Fatalf("re-encoded request rejected: %v", err)
		}
		if Key(req) != Key(again) {
			t.Fatalf("cache key changed across a round trip: %s vs %s", Key(req), Key(again))
		}
	})
}
