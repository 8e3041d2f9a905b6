module scalegnn/benchmark

go 1.22

require scalegnn v0.0.0

replace scalegnn => ../
