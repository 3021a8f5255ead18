def recurrence(init, g):
 y0 = [init[0]]
 y1 = [init[1]]
 y2 = [init[2]]
 s2 = []
 for i in range(1, len(g)):
  ratio = g[i - 1] / g[i]
  acc = 0.0
  a, b = iter(y0), reversed(y1)
  for l0, r0, l1, r1 in zip(a, b, a, b):
   acc = acc + l0 * r0 + l1 * r1
  if i & 1:
   acc += y0[-1] * y1[0]
  if acc != acc:
   acc = 0.0
   for left, right in zip(y0, reversed(y1)):
    if left != 0.0:
     acc += left * right
  s2.append(acc)
  acc = 0.0
  acc += c0_0 * s2[i - 1]
  y0.append(ratio * acc)
  acc = 0.0
  acc += c1_0 * s2[i - 1]
  acc += c1_1 * y1[i - 1]
  y1.append(ratio * acc)
  acc = 0.0
  acc += c2_0 * y1[i - 1]
  y2.append(ratio * acc)
 return [y0, y1, y2]
