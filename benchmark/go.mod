// The benchmark is a module of its own, so that it builds from its own
// directory (go run -C benchmark .) and is left out of the root module's
// ./... patterns. Its import path stays below denova/, which is what lets
// it reach denova/internal/... through the replace directive.
module denova/benchmark

go 1.22

require denova v0.0.0

replace denova => ../
