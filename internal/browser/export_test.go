package browser

// PlannedRequest is one request of a native burst as the dispatcher
// planned it. Kind is "http", "ws" (Body is the frame) or "doh" (Body is
// the qname).
type PlannedRequest struct {
	Kind, Method, Host, Path, Query, Body string
}

// ObserveBursts makes fn see every native burst's plan, in serial order,
// on the dispatching goroutine before the burst's lanes start.
func (b *Browser) ObserveBursts(fn func([]PlannedRequest)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.burstObserver = func(ops []nativeOp) {
		plan := make([]PlannedRequest, len(ops))
		for i, op := range ops {
			plan[i] = PlannedRequest{Kind: op.kind, Method: op.method, Host: op.host,
				Path: op.path, Query: op.query, Body: op.body}
		}
		fn(plan)
	}
}
