"""FL004 fixture: queue reads written directly in coroutine bodies."""

import time


async def pump(results):
    return results.get()


async def pump_safely(queue, results, data):
    item = await queue.get()
    safe = results.get(timeout=1.0)
    keyed = data.get("op", "search")
    return item, safe, keyed


def warmup(results):
    time.sleep(0.1)
    return results.get()
