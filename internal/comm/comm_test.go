package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(0); err == nil {
		t.Fatal("expected error for size 0")
	}
	if _, err := NewWorld(-3); err == nil {
		t.Fatal("expected error for negative size")
	}
	w, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Size() != 4 {
		t.Fatalf("Size = %d", w.Size())
	}
	if w.Rank(2).Rank() != 2 || w.Rank(2).Size() != 4 {
		t.Fatal("rank endpoint misconfigured")
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	go func() {
		_ = w.Rank(0).Send(1, 7, "hello")
	}()
	got, err := w.Rank(1).Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("got %v", got)
	}
}

func TestRecvBeforeSend(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	done := make(chan any, 1)
	go func() {
		v, _ := w.Rank(1).Recv(0, 1)
		done <- v
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block first
	if err := w.Rank(0).Send(1, 1, 42); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("got %v", v)
		}
	case <-time.After(time.Second):
		t.Fatal("receiver never woke")
	}
}

func TestTagIsolation(t *testing.T) {
	// Messages with different tags must not cross, even from the same sender.
	w, _ := NewWorld(2)
	defer w.Close()
	go func() {
		_ = w.Rank(0).Send(1, 2, "tag2")
		_ = w.Rank(0).Send(1, 1, "tag1")
	}()
	v1, _ := w.Rank(1).Recv(0, 1)
	v2, _ := w.Rank(1).Recv(0, 2)
	if v1 != "tag1" || v2 != "tag2" {
		t.Fatalf("tags crossed: %v %v", v1, v2)
	}
}

func TestFIFOPerSenderTag(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	const n = 50
	go func() {
		for i := 0; i < n; i++ {
			_ = w.Rank(0).Send(1, 0, i)
		}
	}()
	for i := 0; i < n; i++ {
		v, err := w.Rank(1).Recv(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v != i {
			t.Fatalf("out of order: got %v at position %d", v, i)
		}
	}
}

func TestRankRangeErrors(t *testing.T) {
	w, _ := NewWorld(2)
	defer w.Close()
	if err := w.Rank(0).Send(5, 0, nil); !errors.Is(err, ErrRank) {
		t.Fatalf("Send out of range err = %v", err)
	}
	if _, err := w.Rank(0).Recv(-1, 0); !errors.Is(err, ErrRank) {
		t.Fatalf("Recv out of range err = %v", err)
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	w, _ := NewWorld(2)
	errc := make(chan error, 1)
	go func() {
		_, err := w.Rank(1).Recv(0, 9)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock receiver")
	}
	if err := w.Rank(0).Send(1, 0, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after close err = %v", err)
	}
	w.Close() // double close must be safe
}

func TestConcurrentAllToAllExchange(t *testing.T) {
	// Every rank sends its rank number to every other rank and sums what it
	// receives; all must agree. Exercises concurrent mailbox creation.
	const n = 8
	err := RunRanks(n, func(tr Transport) error {
		var wg sync.WaitGroup
		for p := 0; p < n; p++ {
			if p == tr.Rank() {
				continue
			}
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				_ = tr.Send(p, 3, tr.Rank())
			}(p)
		}
		sum := 0
		for p := 0; p < n; p++ {
			if p == tr.Rank() {
				continue
			}
			v, err := tr.Recv(p, 3)
			if err != nil {
				return err
			}
			sum += v.(int)
		}
		wg.Wait()
		want := n*(n-1)/2 - tr.Rank()
		if sum != want {
			return fmt.Errorf("rank %d sum %d, want %d", tr.Rank(), sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRanksPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := RunRanks(3, func(tr Transport) error {
		if tr.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestRunRanksRejectsBadSize(t *testing.T) {
	if err := RunRanks(0, func(Transport) error { return nil }); err == nil {
		t.Fatal("expected error")
	}
}

// Mailbox reclamation must never strand a message in an orphaned channel.
// The racy case is a sender blocked on a full box (mailboxBuffer messages
// queued) while the receiver drains it: the box empties and refills many
// times, and every drain is a chance to drop it under a sender still
// holding it. Several senders each push far more than mailboxBuffer
// messages through one shared tag while the receiver drains each stream
// in a different rhythm; every stream must arrive complete and in FIFO
// order, and the world must hold no mailbox once it is quiescent.
func TestMailboxReclaimUnderBackpressure(t *testing.T) {
	const (
		senders = 3
		msgs    = 20 * mailboxBuffer
		tag     = 42
	)
	w, err := NewWorld(senders + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetRecvTimeout(10 * time.Second) // a stranded message fails, not hangs
	recv := senders                    // the receiving rank
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < msgs; i++ {
				if err := w.Rank(s).Send(recv, tag, i); err != nil {
					t.Errorf("sender %d msg %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	// Let the senders fill their boxes and block before draining starts.
	time.Sleep(10 * time.Millisecond)
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < msgs; i++ {
				if i%(mailboxBuffer/(s+1)) == 0 {
					time.Sleep(50 * time.Microsecond) // let the box refill
				}
				v, err := w.Rank(recv).Recv(s, tag)
				if err != nil {
					errs <- fmt.Errorf("from %d msg %d: %w", s, i, err)
					return
				}
				if v.(int) != i {
					errs <- fmt.Errorf("from %d: got message %v, want %d", s, v, i)
					return
				}
			}
			errs <- nil
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := w.LiveMailboxes(); got != 0 {
		t.Fatalf("%d mailboxes live after every stream drained, want 0", got)
	}
}

// A box that empties between messages is reclaimed and recreated each
// time; ping-pong traffic on one tag exercises that churn in both
// directions, including the free-list reuse of drained boxes.
func TestMailboxReclaimPingPong(t *testing.T) {
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const rounds = 500
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			v, err := w.Rank(1).Recv(0, 5)
			if err != nil {
				done <- err
				return
			}
			if err := w.Rank(1).Send(0, 5, v.(int)+1); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rounds; i++ {
		if err := w.Rank(0).Send(1, 5, 2*i); err != nil {
			t.Fatal(err)
		}
		v, err := w.Rank(0).Recv(1, 5)
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != 2*i+1 {
			t.Fatalf("round %d: got %v, want %d", i, v, 2*i+1)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := w.LiveMailboxes(); got != 0 {
		t.Fatalf("%d mailboxes live after ping-pong, want 0", got)
	}
}

// Free-running streams on several tags at once keep boxes emptying and
// refilling at full speed, so a sender often holds a box at the instant its
// receiver drains it. Reclaiming such a box would strand the sender's
// message in an orphaned channel (a stream stalls or loses a message), and
// recycling it to another key would cross-deliver between streams; both
// show up here as a timeout or an out-of-order value.
func TestMailboxReclaimConcurrentStreams(t *testing.T) {
	const (
		senders = 3
		tags    = 2
		msgs    = 20000
	)
	w, err := NewWorld(senders + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.SetRecvTimeout(10 * time.Second)
	recv := senders
	errs := make(chan error, senders*tags)
	for s := 0; s < senders; s++ {
		for tag := 0; tag < tags; tag++ {
			go func(s, tag int) {
				for i := 0; i < msgs; i++ {
					if err := w.Rank(s).Send(recv, tag, i); err != nil {
						return // the receiver side reports the failure
					}
				}
			}(s, tag)
			go func(s, tag int) {
				for i := 0; i < msgs; i++ {
					v, err := w.Rank(recv).Recv(s, tag)
					if err != nil {
						errs <- fmt.Errorf("from %d tag %d msg %d: %w", s, tag, i, err)
						return
					}
					if v.(int) != i {
						errs <- fmt.Errorf("from %d tag %d: got message %v, want %d", s, tag, v, i)
						return
					}
				}
				errs <- nil
			}(s, tag)
		}
	}
	for k := 0; k < senders*tags; k++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
