module regcast/bench

go 1.22

require regcast v0.0.0

replace regcast => ../
