package transport

import (
	"testing"
	"unsafe"

	"netfence/internal/sim"
)

// TestTCPSenderLayoutBudget pins the per-sender TCP state inside the
// 352-byte malloc size class: a large scenario holds one per long flow,
// and the SYN and RTO roles share one owned event to get there.
func TestTCPSenderLayoutBudget(t *testing.T) {
	if n := unsafe.Sizeof(TCPSender{}); n > 352 {
		t.Fatalf("sizeof(TCPSender) = %d, budget 352", n)
	}
}

// TestTCPTimerRoles holds the shared owned timer to one role at a time:
// while the sender is in the handshake it is the SYN timer and no RTO
// is set, after establishment it is the RTO, and in no other state is it
// armed. (Arming one role while the other is pending would panic in
// ScheduleEvent.) Close — in the handshake, after establishment, or
// from finish — leaves the event disarmed, and the engine drains.
func TestTCPTimerRoles(t *testing.T) {
	cases := []struct {
		name      string
		fileBytes int64
		receiver  bool // no receiver: every SYN goes unanswered
		ends      bool // the sender finishes or fails by itself
		roles     string
	}{
		{"short", 20_000, true, true, "syn+rto"},
		{"streaming", -1, true, false, "syn+rto"},
		// Unbounded, so the 200 s transfer abort cannot pre-empt the
		// SYN backoff's 303 s.
		{"syn-retries-exhausted", -1, false, true, "syn"},
	}
	for _, tc := range cases {
		for _, closeAt := range []string{"finish", "handshake", "established"} {
			if closeAt == "established" && !tc.receiver {
				continue // the handshake never completes
			}
			t.Run(tc.name+"/close-"+closeAt, func(t *testing.T) {
				n, h1, h2 := testNet(7, 10_000_000, 0)
				if tc.receiver {
					NewTCPReceiver(h2.Host, 1)
				}
				s := NewTCPSender(h1.Host, h2.ID, 1, tc.fileBytes)
				s.Start()
				syn, rto := false, false
				check := func() {
					t.Helper()
					if !s.timerEv.Pending() {
						return
					}
					switch s.state {
					case tcpSynSent:
						if s.synTimer != &s.timerEv || s.rtoTimer != nil {
							t.Fatalf("at %v: timer pending in the handshake with synTimer %p rtoTimer %p", n.Eng.Now(), s.synTimer, s.rtoTimer)
						}
						syn = true
					case tcpEstablished:
						if s.rtoTimer != &s.timerEv {
							t.Fatalf("at %v: timer pending after establishment, not as the RTO", n.Eng.Now())
						}
						rto = true
					default:
						t.Fatalf("at %v: timer pending in state %d", n.Eng.Now(), s.state)
					}
				}
				check()
				closed := false
				if closeAt == "handshake" {
					s.Close()
					closed = true
				}
				horizon := 10 * sim.Second // the streaming transfer never finishes
				if tc.ends {
					horizon = 1000 * sim.Second // past the SYN backoff's 303 s
				}
				for n.Eng.Now() < horizon && n.Eng.Step() {
					check()
					if closeAt == "established" && !closed && s.Established() && s.timerEv.Pending() {
						s.Close()
						closed = true
					}
				}
				if !closed && s.state != tcpDone && s.state != tcpFailed {
					if tc.ends {
						t.Fatalf("the transfer neither finished nor failed (state %d)", s.state)
					}
					s.Close()
				}
				if s.timerEv.Pending() {
					t.Fatalf("the shared timer is still pending after Close (state %d)", s.state)
				}
				n.Eng.Run()
				if p := n.Eng.Pending(); p != 0 {
					t.Fatalf("%d events pending after the engine drained", p)
				}
				if closeAt != "finish" {
					return
				}
				got := "syn"
				if rto {
					got += "+rto"
				}
				if !syn || got != tc.roles {
					t.Fatalf("roles seen %q (syn %v), want %q", got, syn, tc.roles)
				}
			})
		}
	}
}
