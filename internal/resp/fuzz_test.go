package resp

import (
	"fmt"
	"strings"
	"testing"
)

// decodeValues feeds data to one Reader chunk bytes at a time, draining
// ReadValue after every feed, and renders the decoded values followed by
// the first protocol error (if any). Every successful read must consume
// input, so the loop always terminates.
func decodeValues(t *testing.T, data []byte, chunk int) string {
	var b strings.Builder
	var r Reader
	for off := 0; off < len(data); off += chunk {
		r.Feed(data[off:min(off+chunk, len(data))])
		for {
			before := r.Buffered()
			v, ok, err := r.ReadValue()
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				return b.String()
			}
			if !ok {
				if r.Buffered() != before {
					t.Fatalf("incomplete read moved the cursor: %d -> %d buffered", before, r.Buffered())
				}
				break
			}
			if r.Buffered() >= before {
				t.Fatalf("ReadValue returned %+v without consuming input", v)
			}
			fmt.Fprintf(&b, "%+v\n", v)
		}
	}
	return b.String()
}

// FuzzReader drives both decoders over arbitrary bytes. Neither may panic
// or allocate by an untrusted length, ReadValue must decode the same values
// (and hit the same error) whether the input arrives whole or one byte at
// a time, and every command ReadCommand returns must have at least one
// argument and consume input.
func FuzzReader(f *testing.F) {
	for _, seed := range []string{
		"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n",       // command
		"*1\r\n$4\r\nPING\r\nGET key\r\n\r\n",             // array then inline
		">2\r\n$10\r\ninvalidate\r\n$3\r\nkey\r\n+OK\r\n", // push, then a reply
		"$-1\r\n*-1\r\n*0\r\n",                            // nulls, empty array
		"-MOVED 3999 127.0.0.1:6381\r\n-ASK 12 g1.master:6379\r\n",
		":-42\r\n+\r\n$0\r\n\r\n*2\r\n*1\r\n:1\r\n$2\r\nab\r\n",
		"$3\r\nabcd\r\n", // bulk missing CRLF
		"?\r\n",          // unknown type byte
		"$9223372036854775807\r\n",
		"*99999999999999\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		whole := decodeValues(t, data, len(data)+1)
		if split := decodeValues(t, data, 1); split != whole {
			t.Fatalf("byte-at-a-time decode differs from whole-buffer decode:\n--- whole:\n%s--- split:\n%s", whole, split)
		}

		var r Reader
		r.Feed(data)
		for {
			before := r.Buffered()
			argv, ok, err := r.ReadCommand()
			if err != nil || !ok {
				return
			}
			if len(argv) == 0 {
				t.Fatal("ReadCommand returned an empty command")
			}
			if r.Buffered() >= before {
				t.Fatalf("ReadCommand returned %q without consuming input", argv)
			}
		}
	})
}
