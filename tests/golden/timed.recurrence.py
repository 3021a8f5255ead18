def recurrence(init, g):
 y0 = [init[0]]
 y1 = [init[1]]
 s2 = []
 s3 = []
 for i in range(1, len(g)):
  ratio = g[i - 1] / g[i]
  acc = 0.0
  a, b = iter(y0), reversed(y0)
  for l0, r0, l1, r1 in zip(a, b, a, b):
   acc = acc + l0 * r0 + l1 * r1
  if i & 1:
   acc += y0[-1] * y0[0]
  if acc != acc:
   acc = 0.0
   for left, right in zip(y0, reversed(y0)):
    if left != 0.0:
     acc += left * right
  s2.append(acc)
  acc = 0.0
  a, b = iter(s2), reversed(y1)
  for l0, r0, l1, r1 in zip(a, b, a, b):
   acc = acc + l0 * r0 + l1 * r1
  if i & 1:
   acc += s2[-1] * y1[0]
  if acc != acc:
   acc = 0.0
   for left, right in zip(s2, reversed(y1)):
    if left != 0.0:
     acc += left * right
  s3.append(acc)
  acc = 0.0
  if i > 1: acc += c0_0 * s3[i - 2]
  if i == 3: acc += c0_1 * 1.0
  y0.append(ratio * acc)
  acc = 0.0
  acc += c1_0 * y0[i - 1]
  if i == 1: acc += c1_1 * 1.0
  y1.append(ratio * acc)
 return [y0, y1]
