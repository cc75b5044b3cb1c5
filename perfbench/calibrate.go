package main

import (
	"container/heap"
	"time"
)

// The host this benchmark was written on is a virtual machine shared
// with other tenants, and its speed changes in phases lasting seconds to
// minutes: the simulator runs up to 1.8x slower in some phases, while a
// plain arithmetic or memory loop barely changes. The calibration kernel
// below is a tiny discrete-event simulation built on the mechanisms the
// simulator's hot path uses (goroutines resumed one at a time over
// channels from a timer heap, small allocations) but on none of the
// repository's code, so
// no change to the simulator can move it. Timed around every
// repetition, it measures the host's current speed, and host times are
// rescaled to the speed at which the kernel takes calRefSeconds.
//
// calRefSeconds is the kernel's time in the host's fast phase (go1.24.0,
// 2-CPU VM), so rescaled times read as seconds on that host when it is
// not disturbed.
const calRefSeconds = 0.012

type calEvent struct {
	at int64
	ch chan struct{}
}

// calQueue is the kernel's timer heap. It goes through container/heap,
// so every push and pop boxes an event: like the simulator's hot path,
// the kernel makes small allocations and interface calls.
type calQueue []calEvent

func (q calQueue) Len() int            { return len(q) }
func (q calQueue) Less(i, j int) bool  { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x interface{}) { *q = append(*q, x.(calEvent)) }
func (q *calQueue) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// calibrate runs the kernel once and returns its host seconds: 64
// goroutines each take 300 steps, and every step is one pop from the
// timer heap, one resume, some arithmetic, one park and one push.
func calibrate() float64 {
	const procs, steps = 64, 300
	t0 := time.Now()
	var q calQueue
	yield := make(chan int64)
	for p := 0; p < procs; p++ {
		ch := make(chan struct{})
		heap.Push(&q, calEvent{at: int64(p), ch: ch})
		go func(p int, ch chan struct{}) {
			now := int64(0)
			for s := 0; s < steps; s++ {
				<-ch
				now += int64(1000 + (p*7919+s*104729)%997)
				yield <- now
			}
			<-ch
			yield <- -1
		}(p, ch)
	}
	for q.Len() > 0 {
		ev := heap.Pop(&q).(calEvent)
		ev.ch <- struct{}{}
		if at := <-yield; at >= 0 {
			heap.Push(&q, calEvent{at: at, ch: ev.ch})
		}
	}
	return time.Since(t0).Seconds()
}
