package slots

import "testing"

// FuzzParseRedirectKind feeds arbitrary error messages to the redirect
// parser. It must never panic; whatever it accepts must carry an in-range
// slot, a non-empty address and a valid port, agree with ParseRedirect,
// and parse back to the same fields once re-formatted.
func FuzzParseRedirectKind(f *testing.F) {
	for _, seed := range []string{
		"MOVED 3999 127.0.0.1:6381",
		"ASK 0 g1.master:6379",
		"MOVED 16383 [::1]:7000",
		"MOVED 16384 h:1",
		"MOVED -1 h:1",
		"ASK 5 :6379",
		"MOVED 5 h:0",
		"MOVED 5 h:65536",
		"ASK 1 h:80 extra",
		"MOVED 12",
		"CROSSSLOT Keys in request don't hash to the same slot",
		"ERR unknown command",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, msg string) {
		kind, slot, addr, port := ParseRedirectKind(msg)
		s2, a2, p2, ok := ParseRedirect(msg)
		if ok != (kind != RedirectNone) || (ok && (s2 != slot || a2 != addr || p2 != port)) {
			t.Fatalf("ParseRedirect(%q) = %d %q %d %v disagrees with ParseRedirectKind = %v %d %q %d",
				msg, s2, a2, p2, ok, kind, slot, addr, port)
		}
		if kind == RedirectNone {
			return
		}
		if slot < 0 || slot >= NumSlots || addr == "" || port <= 0 || port > 65535 {
			t.Fatalf("ParseRedirectKind(%q) accepted slot=%d addr=%q port=%d", msg, slot, addr, port)
		}
		again := MovedMessage(slot, addr, port)
		if kind == RedirectAsk {
			again = AskMessage(slot, addr, port)
		}
		k2, s3, a3, p3 := ParseRedirectKind(again)
		if k2 != kind || s3 != slot || a3 != addr || p3 != port {
			t.Fatalf("%q re-formatted as %q parses to %v %d %q %d", msg, again, k2, s3, a3, p3)
		}
	})
}
