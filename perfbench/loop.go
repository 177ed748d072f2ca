package main

import (
	"sync"
	"sync/atomic"
)

// clients is the closed-loop concurrency of every workload: one caller per
// host core on the 2-core reference machine, so neither the Runner's worker
// pool nor the server's request gate queues work while a client waits.
const clients = 2

// closedLoop runs do(0..n-1) from clients goroutines, each taking the next
// index only after its previous call returned, and returns each call's
// host latency in seconds, indexed like the calls.
func closedLoop(n int, do func(i int)) []float64 {
	lat := make([]float64, n)
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				start := now()
				do(i)
				d := secondsSince(start)
				mu.Lock()
				lat[i] = d
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat
}
