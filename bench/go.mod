module hypre/bench

go 1.24

require hypre v0.0.0

replace hypre => ../
