"""The tuple sort and merge that ``affsymp.words.sort_with_sign`` and
``invariants.omega_power`` used before both went through the bitmask sort
``sorted_wedge_code``, kept as a test oracle for it."""


def tuple_sort_with_sign(word):
    """Sort a word by insertion, tracking the permutation sign; (None, 0)
    on repeats."""
    items = list(word)
    sign = 1
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(items)):
        if items[i - 1] == items[i]:
            return None, 0
    return tuple(items), sign


def merge_with_sign(left, right):
    """Merge two strictly increasing words, counting inversion parity;
    (None, 0) when they share a letter."""
    out = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return None, 0
        if a < b:
            out.append(a)
            i += 1
        else:
            out.append(b)
            j += 1
            if (len(left) - i) % 2:
                sign = -sign
    out.extend(left[i:])
    out.extend(right[j:])
    return tuple(out), sign
