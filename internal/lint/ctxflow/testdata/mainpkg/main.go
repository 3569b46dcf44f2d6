// Command mainpkg pins the package-main exemption: process entry
// points own the root context, so Background, and a struct that keeps
// it for the process's lifetime, are legal here.
package main

import "context"

type process struct {
	ctx context.Context
}

func main() {
	p := process{ctx: context.Background()}
	run(p.ctx)
}

func run(ctx context.Context) { _ = ctx }
