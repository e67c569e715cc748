package iter

import "time"

// Timed wraps an iterator with a counting-timing decorator: it measures
// the wall time spent inside Open/Next pulls and counts the batches and
// rows produced, reporting once to done when the iterator is closed.
// This is how traced queries time whole pipeline stages (the exec tail,
// the streaming surface) without touching the operators themselves.
func Timed(it Iterator, done func(batches, rows int64, d time.Duration)) Iterator {
	return &timed{it: it, done: done}
}

type timed struct {
	it      Iterator
	done    func(batches, rows int64, d time.Duration)
	batches int64
	rows    int64
	dur     time.Duration
	closed  bool
}

func (t *timed) Open() error {
	t0 := time.Now()
	err := t.it.Open()
	t.dur += time.Since(t0)
	return err
}

func (t *timed) Next(b *Batch) (bool, error) {
	t0 := time.Now()
	ok, err := t.it.Next(b)
	t.dur += time.Since(t0)
	if ok {
		t.batches++
		t.rows += int64(b.Len())
	}
	return ok, err
}

func (t *timed) Close() error {
	err := t.it.Close()
	if !t.closed {
		t.closed = true
		if t.done != nil {
			t.done(t.batches, t.rows, t.dur)
		}
	}
	return err
}
