package resp

import (
	"bytes"
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
// or allocate by an untrusted length, and each must decode the same values
// or commands (and hit the same error) whether the input arrives whole or
// one byte at a time. At every step ReadCommand must agree with a
// reference built on ReadValue alone, and every command it returns must
// have at least one argument and consume input.
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
		"*2\r\n$3\r\nGET\r\n$-1\r\n",           // null argument
		"*2\r\n$3\r\nGET\r\n:1\r\n",            // non-bulk argument
		"*2\r\n$-1\r\n$3\r\nab",                // null, then incomplete
		"*2\r\n$+1\r\na\r\n$-0\r\n\r\n",        // signed lengths
		"*1\r\n$2\r\nabX\r\n*1\r\n$1\r\nb\r\n", // bad CRLF
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		whole := decodeValues(t, data, len(data)+1)
		if split := decodeValues(t, data, 1); split != whole {
			t.Fatalf("byte-at-a-time decode differs from whole-buffer decode:\n--- whole:\n%s--- split:\n%s", whole, split)
		}

		whole = decodeCommands(t, data, len(data)+1)
		if split := decodeCommands(t, data, 1); split != whole {
			t.Fatalf("byte-at-a-time commands differ from whole-buffer commands:\n--- whole:\n%s--- split:\n%s", whole, split)
		}
	})
}

// refReadCommand is ReadCommand decoded entirely through ReadValue, without
// the argv fast path: the reference the fast path must match.
func refReadCommand(r *Reader) ([][]byte, bool, error) {
	if r.pos >= len(r.buf) {
		return nil, false, nil
	}
	for r.pos < len(r.buf) && r.buf[r.pos] != TypeArray {
		l, ok := r.line()
		if !ok {
			return nil, false, nil
		}
		fields := bytes.Fields(l)
		if len(fields) == 0 {
			r.compact()
			continue
		}
		argv := make([][]byte, len(fields))
		for i, f := range fields {
			argv[i] = append([]byte(nil), f...)
		}
		r.compact()
		return argv, true, nil
	}
	if r.pos >= len(r.buf) {
		return nil, false, nil
	}
	v, ok, err := r.ReadValue()
	if err != nil || !ok {
		return nil, ok, err
	}
	if v.Null || len(v.Array) == 0 {
		return nil, false, fmt.Errorf("%w: empty command array", ErrProtocol)
	}
	argv := make([][]byte, len(v.Array))
	for i, e := range v.Array {
		if e.Type != TypeBulk || e.Null {
			return nil, false, fmt.Errorf("%w: command element not a bulk string", ErrProtocol)
		}
		argv[i] = e.Str
	}
	return argv, true, nil
}

// decodeCommands feeds data chunk bytes at a time to two Readers, one
// drained with ReadCommand and one with refReadCommand, and fails on the
// first step where they disagree in argv, ok, error or Buffered. It
// renders the commands and the first error, if any.
func decodeCommands(t *testing.T, data []byte, chunk int) string {
	var b strings.Builder
	var fast, ref Reader
	for off := 0; off < len(data); off += chunk {
		fast.Feed(data[off:min(off+chunk, len(data))])
		ref.Feed(data[off:min(off+chunk, len(data))])
		for {
			before := fast.Buffered()
			argv, ok, err := fast.ReadCommand()
			wantArgv, wantOK, wantErr := refReadCommand(&ref)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || ok != wantOK ||
				fmt.Sprintf("%q", argv) != fmt.Sprintf("%q", wantArgv) ||
				fast.Buffered() != ref.Buffered() {
				t.Fatalf("ReadCommand = %q, %v, %v (buffered %d); reference = %q, %v, %v (buffered %d)",
					argv, ok, err, fast.Buffered(), wantArgv, wantOK, wantErr, ref.Buffered())
			}
			if err != nil {
				fmt.Fprintf(&b, "error: %v\n", err)
				return b.String()
			}
			if !ok {
				break // empty inline lines may have been skipped
			}
			if len(argv) == 0 {
				t.Fatal("ReadCommand returned an empty command")
			}
			if fast.Buffered() >= before {
				t.Fatalf("ReadCommand returned %q without consuming input", argv)
			}
			fmt.Fprintf(&b, "%q\n", argv)
		}
	}
	return b.String()
}
