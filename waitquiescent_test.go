package regcast

import (
	"testing"
	"time"
)

// fakeCluster is the two-method stand-in for *transport.Cluster that
// waitQuiescent polls. A restless one reports a new packet count on every
// poll and so never settles.
type fakeCluster struct {
	restless bool
	polls    int64
}

func (f *fakeCluster) CountKnowing(string) int { return 1 }

func (f *fakeCluster) PacketsSent() int64 {
	f.polls++
	if f.restless {
		return f.polls
	}
	return 7
}

// TestWaitQuiescentReportsDeadline pins the tick deadline's accounting: a
// cluster that never settles makes waitQuiescent give up and say so (the
// Runner counts it in Result.TickTimeouts), a settled one returns after
// two equal polls without a timeout.
func TestWaitQuiescentReportsDeadline(t *testing.T) {
	restless := &fakeCluster{restless: true}
	if !waitQuiescent(restless, "r", 10*time.Millisecond) {
		t.Error("a cluster that never settles did not report the deadline")
	}
	if restless.polls < 2 {
		t.Errorf("gave up after %d polls; the deadline should allow several", restless.polls)
	}

	settled := &fakeCluster{}
	if waitQuiescent(settled, "r", time.Minute) {
		t.Error("a settled cluster reported a timeout")
	}
	if settled.polls != 2 {
		t.Errorf("settled after %d polls, want 2 (two equal observations)", settled.polls)
	}
}
