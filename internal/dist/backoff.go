package dist

import (
	"context"
	"hash/fnv"
	"math/rand"
	"time"
)

// backoff produces exponentially growing delays with deterministic jitter.
// The RNG is seeded from a name (worker ID, coordinator role), so a
// replayed chaos test sees identical delay sequences while distinct
// workers still de-synchronize — the whole point of jitter is that a
// coordinator restart does not get a thundering herd of perfectly aligned
// retries.
type backoff struct {
	base, max, next time.Duration
	rng             *rand.Rand
}

func newBackoff(seedName string, base, max time.Duration) *backoff {
	h := fnv.New64a()
	_, _ = h.Write([]byte(seedName))
	return &backoff{base: base, max: max, next: base, rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// delay returns the next delay in the schedule: the current step plus up
// to half a step of jitter, then doubles the step up to the cap.
func (b *backoff) delay() time.Duration {
	d := b.next
	if d > 0 {
		d += time.Duration(b.rng.Int63n(int64(d)/2 + 1))
	}
	if b.next *= 2; b.next > b.max {
		b.next = b.max
	}
	return d
}

// reset rewinds the schedule after a success.
func (b *backoff) reset() { b.next = b.base }

// sleepCtx waits d or until ctx is done, whichever comes first, and
// reports the context's error in the latter case — the cancellable
// replacement for time.Sleep that the ctx-loop lint rule insists on in
// polling loops.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
