// Fixture for the ctx-flow rule: forwarding misses and library-code roots.
package ctxflow

import "context"

func worker(ctx context.Context) error { return nil }

func plain() {}

// forwards is clean: the ctx reaches every ctx-accepting callee, and
// plain() takes none.
func forwards(ctx context.Context) {
	_ = worker(ctx)
	plain()
}

// derived is clean: a child context still forwards the chain.
func derived(ctx context.Context) {
	child, cancel := context.WithCancel(ctx)
	defer cancel()
	_ = worker(child)
}

// drops has a ctx but mints a fresh root for its callee.
func drops(ctx context.Context) {
	_ = worker(context.TODO()) // want `drops has a context in scope but calls worker without forwarding it` `context\.TODO\(\) in library code severs the cancellation chain`
}

// literalDrops shows the ctx scope flowing into a func literal.
func literalDrops(ctx context.Context) func() {
	return func() {
		_ = worker(context.Background()) // want `literalDrops\$0 has a context in scope but calls worker without forwarding it` `context\.Background\(\) in library code severs the cancellation chain`
	}
}

func RunContext(ctx context.Context, n int) error { return worker(ctx) }

// Run is a ctx-less twin of RunContext: minting the root for its callee
// is a finding like any other, so callers must hold and pass a ctx.
func Run(n int) error {
	return RunContext(context.Background(), n) // want `context\.Background\(\) in library code severs the cancellation chain`
}
