GO ?= go

.PHONY: all build test vet lint race verify bench bench-smoke clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Gated on tool presence so the target never
# forces an install: CI installs staticcheck explicitly; a bare dev box
# skips with a note instead of failing.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./... ; \
	else \
		echo "lint: staticcheck/golangci-lint not installed, skipping"; \
	fi

# The cluster suite runs minutes of virtual time per scenario; race
# instrumentation pushes it past the default 10m package timeout.
race:
	$(GO) test -race -timeout 60m ./...

# Full pre-merge gate: everything CI runs.
verify: build test vet lint race

# Regenerate the paper-figure experiments (virtual-time, deterministic).
bench:
	$(GO) run ./cmd/skv-bench

# Run every experiment at tiny scale: proves each one still builds its
# cluster, runs, and renders. Numbers are meaningless at this scale.
bench-smoke:
	$(GO) run ./cmd/skv-bench -smoke

clean:
	$(GO) clean ./...
