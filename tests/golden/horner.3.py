def horner(c, x):
 acc = 0.0
 acc = ((acc * x + c[2]) * x + c[1]) * x + c[0]
 return acc
