package live

// PendingTimers reports how many armed firings the executor tracks.
func (r *Runtime) PendingTimers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.timers)
}
